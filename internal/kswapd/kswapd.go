// Package kswapd implements the kernel swap daemon the paper identifies
// as one of the two CPU thieves under memory pressure (§2, §5).
//
// The daemon wakes when free memory falls below the low watermark and
// scans/reclaims in batches until free memory rises above the high
// watermark. Crucially, reclaim progress is coupled to the CPU
// scheduler: every batch costs CPU time on the kswapd thread, which is
// in the *fair* class — so, as the paper observes, video client threads
// "have to fairly share the CPU with the CPU-hungry thread — kswapd"
// (§5), and when kswapd cannot keep up, allocations fall through to
// direct reclaim on the allocating thread itself.
//
// The same scan mechanics are reused for direct reclaim via
// DirectReclaim, which blocks the calling thread — including, as the
// paper notes, "the foreground application's main UI thread" (§2).
package kswapd

import (
	"time"

	"coalqoe/internal/blockio"
	"coalqoe/internal/mem"
	"coalqoe/internal/sched"
	"coalqoe/internal/simclock"
	"coalqoe/internal/telemetry"
	"coalqoe/internal/units"
)

// Config tunes the daemon.
type Config struct {
	// PinCore gives kswapd a soft affinity to core PinCore−1 when set
	// (1-based; 0 disables) — the §7 coordinated-scheduling
	// suggestion.
	PinCore int
}

// Reclaim costs of the modelled kernel.
const (
	// batchPages is the LRU scan batch size.
	batchPages units.Pages = 128
	// scanCPUPerPage is the CPU cost to scan one page.
	scanCPUPerPage = 1500 * time.Nanosecond
	// compressCPUPerPage is the extra CPU per anonymous page compressed
	// to zRAM: 15µs (LZ4-class on a small core).
	compressCPUPerPage = 15 * time.Microsecond
	// checkInterval is the watermark poll cadence. Allocation paths can
	// also Kick the daemon explicitly.
	checkInterval = 25 * time.Millisecond
	// scanCost is the CPU one scan batch costs before it runs.
	scanCost = time.Duration(batchPages) * scanCPUPerPage
)

// Daemon is the kswapd model.
type Daemon struct {
	mem    *mem.Memory
	disk   *blockio.Disk
	thread *sched.Thread
	active bool

	// Bound batch callbacks, created once in New: the reclaim loop runs
	// a batch every few hundred microseconds of simulated time under
	// pressure, and re-creating the closures per batch made it one of
	// the kernel's top allocation sites. lastRes carries the batch
	// outcome to finishBatch (only one batch is ever in flight: the
	// loop re-arms strictly from finishBatch).
	batchFn  func()
	finishFn func()
	lastRes  mem.ScanResult

	// Wakeups counts low-watermark activations.
	Wakeups int
	// BatchesRun counts scan batches executed.
	BatchesRun int

	// tmReclaimed counts pages the daemon's own batches took off the
	// LRU (direct reclaim is accounted under mem.direct_reclaims); nil
	// until Instrument.
	tmReclaimed *telemetry.Counter
}

// New creates the daemon, spawns its thread (fair class, like the real
// kswapd which shares priority with foreground threads), and starts the
// watermark poll.
func New(clock *simclock.Clock, s *sched.Scheduler, m *mem.Memory, d *blockio.Disk, cfg Config) *Daemon {
	k := &Daemon{
		mem:    m,
		disk:   d,
		thread: s.Spawn("kswapd0", "kernel", sched.ClassFair, 0),
	}
	if cfg.PinCore > 0 {
		k.thread.SetPreferredCore(cfg.PinCore - 1)
	}
	k.batchFn = k.runBatch
	k.finishFn = k.finishBatch
	clock.Every(checkInterval, k.Kick)
	return k
}

// Thread returns the kswapd thread (for trace queries).
func (k *Daemon) Thread() *sched.Thread { return k.thread }

// Instrument registers the daemon's telemetry: wakeups and batches as
// sampled cumulative series, pages reclaimed by kswapd itself as a
// counter, and whether a reclaim loop is in flight.
func (k *Daemon) Instrument(reg *telemetry.Registry) {
	k.tmReclaimed = reg.Counter("kswapd.pages_reclaimed")
	reg.SampleFunc("kswapd.wakeups", func() float64 { return float64(k.Wakeups) })
	reg.SampleFunc("kswapd.batches", func() float64 { return float64(k.BatchesRun) })
	reg.SampleFunc("kswapd.active", func() float64 {
		if k.active {
			return 1
		}
		return 0
	})
}

// Active reports whether a reclaim loop is in flight.
func (k *Daemon) Active() bool { return k.active }

// Kick checks the watermarks and starts the reclaim loop if needed.
// Allocation paths call this on watermark breach; it also runs on the
// poll timer.
func (k *Daemon) Kick() {
	if k.active || !k.mem.BelowLow() {
		return
	}
	k.active = true
	k.Wakeups++
	k.loop()
}

// loop runs one scan batch on the kswapd thread, then re-arms until the
// high watermark is restored. CPU time is charged before the batch
// (scan cost) and after (compression cost), so reclaim throughput is
// limited by the CPU share kswapd actually gets.
func (k *Daemon) loop() {
	k.thread.Enqueue(scanCost, k.batchFn)
}

// runBatch executes one scan batch once the scan CPU has been paid.
func (k *Daemon) runBatch() {
	res := k.mem.ScanBatch(batchPages)
	k.BatchesRun++
	k.tmReclaimed.Add(int64(res.Reclaimed()))
	if res.DirtyQueued > 0 {
		dirty := res.DirtyQueued
		k.disk.Write(dirty, func() { k.mem.CompleteWriteback(dirty) })
	}
	k.lastRes = res
	if res.AnonCompressed > 0 {
		k.thread.Enqueue(time.Duration(res.AnonCompressed)*compressCPUPerPage, k.finishFn)
	} else {
		k.finishBatch()
	}
}

// finishBatch decides whether the reclaim loop re-arms or goes back to
// sleep, after any compression CPU for the last batch was paid.
func (k *Daemon) finishBatch() {
	if k.mem.AboveHigh() || (k.lastRes.Reclaimed() == 0 && k.lastRes.Scanned == 0) {
		k.active = false
		return
	}
	k.loop()
}

// DirectReclaim performs synchronous reclaim of need pages on the
// calling thread th: the kernel blocks the allocation "until it can
// free up the memory requested" (§2). The thread pays scan/compression
// CPU and waits in uninterruptible sleep for any writeback the reclaim
// has to flush. onDone fires with the pages actually freed once enough
// progress was made (or reclaim stalls with nothing reclaimable).
func DirectReclaim(th *sched.Thread, m *mem.Memory, d *blockio.Disk, need units.Pages, onDone func(freed units.Pages)) {
	var freed units.Pages
	attempts := 0
	var step func()
	step = func() {
		if freed >= need || attempts > 64 {
			onDone(freed)
			return
		}
		attempts++
		th.Enqueue(scanCost, func() {
			res := m.ScanBatch(batchPages)
			freed += res.FreedNow
			cont := step
			if res.DirtyQueued > 0 {
				// The allocator must wait for the flush: this is the
				// extra I/O wait in "any thread, including the
				// foreground application's main UI thread" (§2).
				dirty := res.DirtyQueued
				barrier := th.EnqueueIOBarrier()
				d.Write(dirty, func() {
					m.CompleteWriteback(dirty)
					freed += dirty
					barrier()
				})
			}
			if res.AnonCompressed > 0 {
				th.Enqueue(time.Duration(res.AnonCompressed)*compressCPUPerPage, cont)
			} else if res.Reclaimed() == 0 && res.Scanned > 0 && m.Free() == 0 {
				// Nothing reclaimable at all: give up (lmkd's job now).
				onDone(freed)
			} else {
				th.Enqueue(0, cont)
			}
		})
	}
	step()
}
