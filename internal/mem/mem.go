// Package mem models the physical memory of an Android device at the
// granularity the paper's §2 background describes: 4 KiB pages split
// into free pages and used pages, with used pages divided into cached
// (file-backed, clean or dirty) and anonymous pages, plus a kernel
// reserve and a zRAM compressed swap space.
//
// The package supplies the mechanics that the kernel daemons build on:
//
//   - allocation/free of anonymous memory with watermark checks and a
//     direct-reclaim request when free memory would fall below min,
//   - page-cache fill and dirtying,
//   - LRU-ish scan/reclaim batches (clean-file drop, dirty-file
//     writeback hand-off, anonymous compression into zRAM),
//   - the memory-pressure estimate the paper gives for lmkd:
//     P = (1 − R/S) · 100 over a sliding window, where R and S are
//     reclaimed and scanned page counts (§2 "Killing of processes"),
//   - a refault (thrashing) signal: when the resident page cache falls
//     below the sum of registered file working sets, processes must
//     re-read recently evicted pages from storage (§2 "Direct reclaim
//     and thrashing").
//
// The model is intentionally global (one zone, one LRU): the paper's
// effects depend on aggregate occupancy and reclaim efficiency, not on
// per-zone detail.
package mem

import (
	"fmt"
	"time"

	"coalqoe/internal/simclock"
	"coalqoe/internal/telemetry"
	"coalqoe/internal/units"
)

// Config sizes a Memory.
type Config struct {
	// Total is the physical RAM size (e.g. 1 GiB for a Nokia 1).
	Total units.Bytes
	// KernelReserve is pinned kernel memory, never reclaimable.
	KernelReserve units.Bytes
	// ZRAMMax is the maximum physical memory zRAM may occupy.
	// Zero disables zRAM (anonymous pages then cannot be reclaimed).
	ZRAMMax units.Bytes
}

// Reclaim and pressure-estimate constants of the modelled kernel.
const (
	// zramRatio is the compression ratio (stored/physical); typical
	// LZ4 ratios on app heaps are ~2.5–3.
	zramRatio = 2.8
	// pressureWindow is the sliding window for the P estimate.
	pressureWindow = time.Second
	// hotAnonReclaimProb is the probability that a scanned hot
	// working-set *anonymous* page is reclaimed anyway. It caps the
	// pressure estimate near (1 − p) · 100 for an anon-dominated LRU,
	// so it must sit below 0.05 for the P ≥ 95 foreground-kill regime
	// (§2) to be reachable.
	hotAnonReclaimProb = 0.04
	// hotFileReclaimProb is the same for hot *file* pages. Kernels of
	// the era evicted executable/code pages far too eagerly under
	// pressure (the classic Android thrashing failure); evicted hot
	// file pages refault from storage.
	hotFileReclaimProb = 0.35
	// fileScanBias weights file pages over anonymous pages in the scan
	// draw, like the kernel's swappiness preferring page-cache
	// reclaim. Values > 1 evict file (code/asset) pages sooner, which
	// is what sends a pressured foreground app into refault I/O.
	fileScanBias = 2.5
	// The min/low/high watermarks as fractions of total RAM: 2%, 4%
	// and 6% (Android raises the stock kernel watermarks via
	// extra_free_kbytes).
	watermarkMinFrac  = 0.02
	watermarkLowFrac  = 0.04
	watermarkHighFrac = 0.06
)

// WorkingSet registers how much memory an active process keeps hot.
// Hot pages resist reclaim and, when evicted anyway, refault.
type WorkingSet struct {
	Anon units.Pages // hot anonymous pages
	File units.Pages // hot file-backed pages (code, assets)
}

// ScanResult reports the outcome of one reclaim scan batch.
type ScanResult struct {
	Scanned units.Pages
	// ReclaimedClean pages were dropped to the free list immediately.
	ReclaimedClean units.Pages
	// DirtyQueued pages moved to the under-writeback pool; the caller
	// must submit the disk writes and call CompleteWriteback.
	DirtyQueued units.Pages
	// AnonCompressed pages were moved into zRAM; the corresponding
	// physical pages freed are included in FreedNow.
	AnonCompressed units.Pages
	// FreedNow is the number of physical pages added to the free list
	// by this batch (clean drops + the net gain from compression).
	FreedNow units.Pages
}

// Reclaimed returns the pages counted as reclaimed for the pressure
// formula: everything the scan managed to take off the LRU.
func (r ScanResult) Reclaimed() units.Pages {
	return r.ReclaimedClean + r.DirtyQueued + r.AnonCompressed
}

// AllocOutcome is the result of an anonymous allocation attempt.
type AllocOutcome struct {
	// Granted pages were allocated immediately.
	Granted units.Pages
	// NeedDirectReclaim is the page shortfall the caller must reclaim
	// synchronously (blocking its thread) before the allocation can
	// complete. Zero when the fast path succeeded.
	NeedDirectReclaim units.Pages
}

type scanSample struct {
	at                 time.Duration
	scanned, reclaimed units.Pages
}

// Memory is the physical-memory model. Not safe for concurrent use.
type Memory struct {
	clock *simclock.Clock

	total     units.Pages
	free      units.Pages
	fileClean units.Pages
	fileDirty units.Pages
	writeback units.Pages // dirty pages queued to disk, still occupying RAM
	anon      units.Pages
	kernel    units.Pages

	zramStored units.Pages // logical (uncompressed) pages held in zRAM
	zramMax    units.Pages // physical cap

	wmMin, wmLow, wmHigh units.Pages

	workingSets map[string]WorkingSet
	// Cached sums over workingSets, maintained on Set/Remove so the
	// per-scan hot path never iterates the map.
	wsAnon, wsFile units.Pages

	// window[winHead:] is the live pressure window, one entry per
	// instant with scanning (same-instant samples are merged);
	// winScanned and winReclaimed are running sums over it, so
	// Pressure() is O(1) and trimming advances the head instead of
	// shifting the slice.
	window                   []scanSample
	winHead                  int
	winScanned, winReclaimed units.Pages
	swapIns                  units.Pages // total pages decompressed back out of zRAM

	// cumulative counters (vmstat-style)
	TotalScanned   units.Pages
	TotalReclaimed units.Pages
	TotalRefaults  units.Pages
	DirectReclaims int

	// telemetry instruments; nil (free no-ops) until Instrument is
	// called.
	tmPgscan, tmPgsteal, tmRefaults, tmAllocStalls *telemetry.Counter
}

// New builds a Memory. All of the configured total except the kernel
// reserve starts free.
func New(clock *simclock.Clock, cfg Config) *Memory {
	total := units.PagesOf(cfg.Total)
	kernel := units.PagesOf(cfg.KernelReserve)
	if kernel >= total {
		panic(fmt.Sprintf("mem: kernel reserve %v >= total %v", cfg.KernelReserve, cfg.Total))
	}
	m := &Memory{
		clock:       clock,
		total:       total,
		free:        total - kernel,
		kernel:      kernel,
		zramMax:     units.PagesOf(cfg.ZRAMMax),
		wmMin:       units.Pages(float64(total) * watermarkMinFrac),
		wmLow:       units.Pages(float64(total) * watermarkLowFrac),
		wmHigh:      units.Pages(float64(total) * watermarkHighFrac),
		workingSets: make(map[string]WorkingSet),
	}
	return m
}

// Accessors.

// Total returns physical RAM in pages.
func (m *Memory) Total() units.Pages { return m.total }

// Free returns the free-list size.
func (m *Memory) Free() units.Pages { return m.free }

// FileClean returns clean page-cache pages.
func (m *Memory) FileClean() units.Pages { return m.fileClean }

// FileDirty returns dirty page-cache pages not yet queued for writeback.
func (m *Memory) FileDirty() units.Pages { return m.fileDirty }

// UnderWriteback returns pages queued to disk but still resident.
func (m *Memory) UnderWriteback() units.Pages { return m.writeback }

// Anon returns anonymous pages.
func (m *Memory) Anon() units.Pages { return m.anon }

// ZRAMStored returns the logical pages compressed into zRAM.
func (m *Memory) ZRAMStored() units.Pages { return m.zramStored }

// ZRAMPhysical returns the physical pages zRAM occupies.
func (m *Memory) ZRAMPhysical() units.Pages {
	return units.Pages(float64(m.zramStored)/zramRatio + 0.5)
}

// SwapIns returns the cumulative pages swapped back in from zRAM.
func (m *Memory) SwapIns() units.Pages { return m.swapIns }

// Available returns free + cached bytes, the paper's §3 definition of
// available memory ("the sum of free and cached bytes").
func (m *Memory) Available() units.Pages { return m.free + m.fileClean + m.fileDirty }

// Utilization returns 1 − available/total, the RAM-utilization measure
// of Figure 2.
func (m *Memory) Utilization() float64 {
	return 1 - float64(m.Available())/float64(m.total)
}

// Watermarks returns (min, low, high) in pages.
func (m *Memory) Watermarks() (min, low, high units.Pages) { return m.wmMin, m.wmLow, m.wmHigh }

// BelowLow reports whether kswapd should be running.
func (m *Memory) BelowLow() bool { return m.free < m.wmLow }

// BelowMin reports whether allocations must direct-reclaim.
func (m *Memory) BelowMin() bool { return m.free < m.wmMin }

// AboveHigh reports whether kswapd may stop.
func (m *Memory) AboveHigh() bool { return m.free >= m.wmHigh }

// check panics if the page accounting invariant breaks; used in tests
// and cheap enough to run always.
func (m *Memory) check() {
	sum := m.free + m.fileClean + m.fileDirty + m.writeback + m.anon + m.kernel + m.ZRAMPhysical()
	// Compression rounding may leave a page of slack.
	diff := sum - m.total
	if diff < -1 || diff > 1 {
		panic(fmt.Sprintf("mem: accounting broke: free=%d clean=%d dirty=%d wb=%d anon=%d kernel=%d zram=%d sum=%d total=%d",
			m.free, m.fileClean, m.fileDirty, m.writeback, m.anon, m.kernel, m.ZRAMPhysical(), sum, m.total))
	}
}

// Instrument registers the memory model's telemetry: the occupancy
// series the paper's SignalCapturer reads from /proc/meminfo (§3), the
// vmstat-style event counters its §5 Perfetto traces plot (pgscan,
// pgsteal, refaults, allocation stalls at the min watermark), and the
// derived pressure signals. The event counters stay nil — and free —
// until this is called.
func (m *Memory) Instrument(reg *telemetry.Registry) {
	m.tmPgscan = reg.Counter("mem.pgscan_pages")
	m.tmPgsteal = reg.Counter("mem.pgsteal_pages")
	m.tmRefaults = reg.Counter("mem.refault_pages")
	m.tmAllocStalls = reg.Counter("mem.alloc_stalls")
	reg.SampleFunc("mem.free_pages", func() float64 { return float64(m.free) })
	reg.SampleFunc("mem.available_pages", func() float64 { return float64(m.Available()) })
	reg.SampleFunc("mem.file_clean_pages", func() float64 { return float64(m.fileClean) })
	reg.SampleFunc("mem.file_dirty_pages", func() float64 { return float64(m.fileDirty) })
	reg.SampleFunc("mem.writeback_pages", func() float64 { return float64(m.writeback) })
	reg.SampleFunc("mem.anon_pages", func() float64 { return float64(m.anon) })
	reg.SampleFunc("mem.zram_stored_pages", func() float64 { return float64(m.zramStored) })
	reg.SampleFunc("mem.zram_phys_pages", func() float64 { return float64(m.ZRAMPhysical()) })
	reg.SampleFunc("mem.swapin_pages", func() float64 { return float64(m.swapIns) })
	reg.SampleFunc("mem.direct_reclaims", func() float64 { return float64(m.DirectReclaims) })
	reg.SampleFunc("mem.pressure", m.Pressure)
	reg.SampleFunc("mem.refault_deficit", m.RefaultDeficit)
	reg.SampleFunc("mem.below_low", func() float64 {
		if m.BelowLow() {
			return 1
		}
		return 0
	})
}

// SetWorkingSet registers (or updates) the named process's hot set.
func (m *Memory) SetWorkingSet(id string, ws WorkingSet) {
	old := m.workingSets[id]
	m.wsAnon += ws.Anon - old.Anon
	m.wsFile += ws.File - old.File
	m.workingSets[id] = ws
}

// RemoveWorkingSet drops the named process's hot set (process died).
func (m *Memory) RemoveWorkingSet(id string) {
	old, ok := m.workingSets[id]
	if !ok {
		return
	}
	m.wsAnon -= old.Anon
	m.wsFile -= old.File
	delete(m.workingSets, id)
}

func (m *Memory) totalWorkingSet() (anon, file units.Pages) {
	return m.wsAnon, m.wsFile
}

// AllocAnon attempts to allocate p anonymous pages. The fast path
// succeeds while free stays above the min watermark; otherwise the
// outcome reports how many pages the caller must direct-reclaim.
func (m *Memory) AllocAnon(p units.Pages) AllocOutcome {
	if p <= 0 {
		return AllocOutcome{}
	}
	if m.free-p >= m.wmMin {
		m.free -= p
		m.anon += p
		m.check()
		return AllocOutcome{Granted: p}
	}
	// Grant what keeps free at min; the rest needs direct reclaim.
	grant := m.free - m.wmMin
	if grant < 0 {
		grant = 0
	}
	m.free -= grant
	m.anon += grant
	m.DirectReclaims++
	m.tmAllocStalls.Inc()
	m.check()
	return AllocOutcome{Granted: grant, NeedDirectReclaim: p - grant}
}

// ForceAllocAnon allocates after a direct reclaim freed enough pages.
// It takes pages even if that dips below the min watermark (the kernel
// grants the blocked allocation as soon as pages appear).
func (m *Memory) ForceAllocAnon(p units.Pages) units.Pages {
	if p > m.free {
		p = m.free
	}
	m.free -= p
	m.anon += p
	m.check()
	return p
}

// FreeAnon releases p anonymous pages (process freed memory or died).
// If fewer than p anonymous pages exist, the remainder is taken out of
// zRAM (the process's pages had been compressed).
func (m *Memory) FreeAnon(p units.Pages) {
	if p <= 0 {
		return
	}
	fromAnon := p
	if fromAnon > m.anon {
		fromAnon = m.anon
	}
	before := m.ZRAMPhysical()
	m.anon -= fromAnon
	m.free += fromAnon
	rest := p - fromAnon
	if rest > 0 {
		if rest > m.zramStored {
			rest = m.zramStored
		}
		m.zramStored -= rest
		m.free += before - m.ZRAMPhysical()
	}
	m.check()
}

// FreeAnonProportional releases p logical anonymous pages split between
// resident anon and zRAM in proportion to the current compressed
// fraction. Use when a process dies: its heap is statistically as
// compressed as the system average.
func (m *Memory) FreeAnonProportional(p units.Pages) {
	if p <= 0 {
		return
	}
	f := m.AnonCompressedFraction()
	fromZram := units.Pages(float64(p) * f)
	fromAnon := p - fromZram
	if fromAnon > m.anon {
		fromAnon = m.anon
	}
	if fromZram > m.zramStored {
		fromZram = m.zramStored
	}
	before := m.ZRAMPhysical()
	m.anon -= fromAnon
	m.zramStored -= fromZram
	m.free += fromAnon + (before - m.ZRAMPhysical())
	m.check()
}

// FileRead fills p pages of page cache (a process read file data).
// Pages come from the free list; if free memory is insufficient the
// fill is truncated (the kernel would reclaim first — callers that care
// run reclaim and retry).
func (m *Memory) FileRead(p units.Pages) units.Pages {
	if p <= 0 {
		return 0
	}
	avail := m.free - m.wmMin
	if avail < 0 {
		avail = 0
	}
	if p > avail {
		p = avail
	}
	m.free -= p
	m.fileClean += p
	m.check()
	return p
}

// DropFileClean releases p clean cache pages (e.g. a file was deleted
// or a process exited and its cache is no longer wanted).
func (m *Memory) DropFileClean(p units.Pages) {
	if p > m.fileClean {
		p = m.fileClean
	}
	m.fileClean -= p
	m.free += p
	m.check()
}

// MarkDirty converts up to p clean cache pages to dirty (writes).
func (m *Memory) MarkDirty(p units.Pages) {
	if p > m.fileClean {
		p = m.fileClean
	}
	m.fileClean -= p
	m.fileDirty += p
	m.check()
}

// SwapInAnon brings p pages back from zRAM (a process touched
// compressed memory). It consumes free pages; the return value is the
// number actually swapped in (limited by zRAM content and free memory).
func (m *Memory) SwapInAnon(p units.Pages) units.Pages {
	if p > m.zramStored {
		p = m.zramStored
	}
	avail := m.free - m.wmMin
	if avail < 0 {
		avail = 0
	}
	if p > avail {
		p = avail
	}
	if p <= 0 {
		return 0
	}
	before := m.ZRAMPhysical()
	m.zramStored -= p
	freed := before - m.ZRAMPhysical() // physical pages vacated in zRAM
	m.free += freed
	m.free -= p
	m.anon += p
	m.swapIns += p
	m.check()
	return p
}

// zramRoom returns how many more logical pages zRAM can absorb.
func (m *Memory) zramRoom() units.Pages {
	room := units.Pages(float64(m.zramMax)*zramRatio) - m.zramStored
	if room < 0 {
		room = 0
	}
	return room
}

// ScanBatch scans n pages of the LRU and reclaims what it can:
//
//   - cold clean file pages are dropped to the free list,
//   - cold dirty file pages move to the under-writeback pool (the
//     caller submits the disk I/O and calls CompleteWriteback),
//   - cold anonymous pages are compressed into zRAM while room remains,
//   - hot pages (covered by registered working sets) are mostly
//     skipped; a small fraction (HotReclaimProb) is reclaimed anyway,
//     which is the source of refaults.
//
// The scanned/reclaimed counts feed the pressure window.
func (m *Memory) ScanBatch(n units.Pages) ScanResult {
	var res ScanResult
	if n <= 0 {
		return res
	}
	// Without any swap device the kernel does not scan the anonymous
	// LRU at all — reclaim works the page cache only.
	scanAnonLRU := m.zramMax > 0
	scannable := m.fileClean + m.fileDirty
	if scanAnonLRU {
		scannable += m.anon
	}
	if scannable == 0 {
		// Nothing on the LRU at all: the scan spins without progress.
		res.Scanned = n
		m.noteScan(n, 0)
		return res
	}
	if n > scannable {
		n = scannable
	}
	res.Scanned = n

	wsAnon, wsFile := m.totalWorkingSet()
	file := m.fileClean + m.fileDirty
	hotFileFrac := frac(wsFile, file)
	// Registered anon working sets are logical (resident + compressed)
	// sizes; assume hot pages are uniformly mixed across resident anon
	// and zRAM, so the hot share of the *resident* pool equals the hot
	// share of the logical pool.
	hotAnonFrac := frac(wsAnon, m.anon+m.zramStored)

	// Draw scanned pages from the pools, with file pages weighted by
	// the swappiness-like bias.
	bias := fileScanBias
	anonPool := float64(0)
	if scanAnonLRU {
		anonPool = float64(m.anon)
	}
	weighted := bias*float64(m.fileClean+m.fileDirty) + anonPool
	scanClean := units.Pages(float64(n) * bias * float64(m.fileClean) / weighted)
	scanDirty := units.Pages(float64(n) * bias * float64(m.fileDirty) / weighted)
	if scanClean > m.fileClean {
		scanClean = m.fileClean
	}
	if scanDirty > m.fileDirty {
		scanDirty = m.fileDirty
	}
	scanAnon := n - scanClean - scanDirty
	if !scanAnonLRU {
		res.Scanned = scanClean + scanDirty
		scanAnon = 0
	}
	if scanAnon > m.anon {
		scanAnon = m.anon
	}

	reclaimFrac := func(hot, hotProb float64) float64 {
		// Cold pages always reclaim; hot pages with hotProb.
		return (1 - hot) + hot*hotProb
	}

	// Clean file: drop.
	recClean := units.Pages(float64(scanClean) * reclaimFrac(hotFileFrac, hotFileReclaimProb))
	if recClean > m.fileClean {
		recClean = m.fileClean
	}
	hotDropped := units.Pages(float64(recClean) * hotFileFrac)
	m.fileClean -= recClean
	m.free += recClean
	res.ReclaimedClean = recClean
	res.FreedNow += recClean

	// Dirty file: queue writeback.
	recDirty := units.Pages(float64(scanDirty) * reclaimFrac(hotFileFrac, hotFileReclaimProb))
	if recDirty > m.fileDirty {
		recDirty = m.fileDirty
	}
	m.fileDirty -= recDirty
	m.writeback += recDirty
	res.DirtyQueued = recDirty

	// Anon: compress into zRAM.
	recAnon := units.Pages(float64(scanAnon) * reclaimFrac(hotAnonFrac, hotAnonReclaimProb))
	if room := m.zramRoom(); recAnon > room {
		recAnon = room
	}
	if recAnon > m.anon {
		recAnon = m.anon
	}
	if recAnon > 0 {
		before := m.ZRAMPhysical()
		m.anon -= recAnon
		m.zramStored += recAnon
		gained := recAnon - (m.ZRAMPhysical() - before)
		if gained < 0 {
			gained = 0
		}
		m.free += gained
		res.AnonCompressed = recAnon
		res.FreedNow += gained
	}

	// Evicting hot file pages creates future refaults.
	m.TotalRefaults += hotDropped
	m.tmRefaults.Add(int64(hotDropped))

	// Pressure accounting: hot pages that the scan skipped count as
	// scanned-but-rotated (no reclaim credit); everything actually
	// taken off the LRU counts as reclaimed, matching pgscan/pgsteal.
	m.noteScan(res.Scanned, res.Reclaimed())
	m.check()
	return res
}

// CompleteWriteback moves p under-writeback pages to the free list
// (disk write finished, page was being reclaimed).
func (m *Memory) CompleteWriteback(p units.Pages) {
	if p > m.writeback {
		p = m.writeback
	}
	m.writeback -= p
	m.free += p
	m.check()
}

// BeginFlush moves up to p dirty pages into the under-writeback pool
// for a periodic (non-reclaim) flush and returns the count; pair with
// CompleteFlushClean when the disk write finishes.
func (m *Memory) BeginFlush(p units.Pages) units.Pages {
	if p > m.fileDirty {
		p = m.fileDirty
	}
	m.fileDirty -= p
	m.writeback += p
	m.check()
	return p
}

// CompleteFlushClean finishes a periodic flush: the pages stay in the
// cache, now clean.
func (m *Memory) CompleteFlushClean(p units.Pages) {
	if p > m.writeback {
		p = m.writeback
	}
	m.writeback -= p
	m.fileClean += p
	m.check()
}

func frac(a, b units.Pages) float64 {
	if b <= 0 {
		return 0
	}
	f := float64(a) / float64(b)
	if f > 1 {
		f = 1
	}
	return f
}

func (m *Memory) noteScan(scanned, reclaimed units.Pages) {
	m.TotalScanned += scanned
	m.TotalReclaimed += reclaimed
	m.tmPgscan.Add(int64(scanned))
	m.tmPgsteal.Add(int64(reclaimed))
	now := m.clock.Now()
	// kswapd scans several batches per instant; samples that share a
	// timestamp always leave the window together, so one entry holds
	// their sum and Pressure is unchanged.
	if n := len(m.window); n > m.winHead && m.window[n-1].at == now {
		m.window[n-1].scanned += scanned
		m.window[n-1].reclaimed += reclaimed
	} else {
		m.window = append(m.window, scanSample{at: now, scanned: scanned, reclaimed: reclaimed})
	}
	m.winScanned += scanned
	m.winReclaimed += reclaimed
	m.trimWindow(now)
}

// trimWindow drops the entries older than pressureWindow. It tests each
// entry's timestamp, so samples merged into one entry leave together,
// exactly as they would one by one.
func (m *Memory) trimWindow(now time.Duration) {
	for m.winHead < len(m.window) && m.window[m.winHead].at < now-pressureWindow {
		m.winScanned -= m.window[m.winHead].scanned
		m.winReclaimed -= m.window[m.winHead].reclaimed
		m.winHead++
	}
	// Reclaim the dead prefix: reset when drained, compact when it
	// dominates the backing array so it cannot grow without bound.
	if m.winHead == len(m.window) {
		m.window = m.window[:0]
		m.winHead = 0
	} else if m.winHead > 64 && m.winHead > len(m.window)/2 {
		m.window = append(m.window[:0], m.window[m.winHead:]...)
		m.winHead = 0
	}
}

// Pressure returns the windowed memory-pressure estimate
// P = (1 − R/S) · 100 from §2. It is 0 when no scanning happened in the
// window (an idle reclaim path means no pressure).
func (m *Memory) Pressure() float64 {
	m.trimWindow(m.clock.Now())
	s, r := m.winScanned, m.winReclaimed
	if s == 0 {
		return 0
	}
	p := (1 - float64(r)/float64(s)) * 100
	if p < 0 {
		p = 0
	}
	return p
}

// RefaultDeficit returns the fraction of the registered file working
// sets that is not resident in the page cache — the thrashing signal.
// 0 means all hot file pages are cached; 1 means none are.
func (m *Memory) RefaultDeficit() float64 {
	_, wsFile := m.totalWorkingSet()
	if wsFile == 0 {
		return 0
	}
	resident := m.fileClean + m.fileDirty
	if resident >= wsFile {
		return 0
	}
	return 1 - float64(resident)/float64(wsFile)
}

// AnonCompressedFraction returns the share of anonymous memory that
// currently lives compressed in zRAM; processes touching it swap in.
func (m *Memory) AnonCompressedFraction() float64 {
	tot := m.anon + m.zramStored
	if tot == 0 {
		return 0
	}
	return float64(m.zramStored) / float64(tot)
}

// String summarizes occupancy for diagnostics.
func (m *Memory) String() string {
	return fmt.Sprintf("mem{free=%s clean=%s dirty=%s wb=%s anon=%s zram=%s/%s avail=%s P=%.0f}",
		m.free.Bytes(), m.fileClean.Bytes(), m.fileDirty.Bytes(), m.writeback.Bytes(),
		m.anon.Bytes(), m.ZRAMPhysical().Bytes(), m.zramStored.Bytes(), m.Available().Bytes(), m.Pressure())
}
