// Package proc models Android processes the way the paper's §2
// describes them: each process has an oom_adj score reflecting its
// priority group, a memory footprint, and — for cached/background
// processes — a position in the least-recently-used list that Android
// uses to generate memory pressure signals.
//
// Memory pressure signals (onTrimMemory) are generated "by tracking the
// number of cached/background processes in the LRU list. Because
// Android tries to aggressively cache processes at all times, a
// decreasing number of cached processes indicates increasing memory
// pressure" (§2 footnote 6). The per-level thresholds are device
// configuration; the Nokia 1 values from the paper (Moderate/Low/
// Critical at 6/5/3 cached processes) are the defaults.
package proc

import (
	"fmt"
	"sort"
	"time"

	"coalqoe/internal/blockio"
	"coalqoe/internal/kswapd"
	"coalqoe/internal/mem"
	"coalqoe/internal/sched"
	"coalqoe/internal/simclock"
	"coalqoe/internal/units"
)

// Level is an onTrimMemory pressure level for foreground apps (§2).
type Level int

// Pressure levels, in increasing severity.
const (
	Normal Level = iota
	Moderate
	Low
	Critical
)

// String names the level as Android does.
func (l Level) String() string {
	switch l {
	case Normal:
		return "Normal"
	case Moderate:
		return "Moderate"
	case Low:
		return "Low"
	case Critical:
		return "Critical"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Standard oom_adj scores by priority group (Android's oom_score_adj
// scale: lower is more important).
const (
	AdjNative     = -1000 // system daemons; never killed here
	AdjForeground = 0
	AdjVisible    = 100
	AdjService    = 500
	AdjCached     = 900 // base for cached apps; LRU position adds to it
)

// SignalThresholds map cached-process counts to pressure levels: the
// level is the most severe whose threshold is >= the live cached count.
type SignalThresholds struct {
	Moderate int // cached count at or below which Moderate fires
	Low      int
	Critical int
}

// DefaultThresholds are the Nokia 1 / Android Go values from the paper.
var DefaultThresholds = SignalThresholds{Moderate: 6, Low: 5, Critical: 3}

// AvailThresholds optionally fire signals from available memory (free +
// cache) sinking below per-level thresholds — the vendor-specific
// customization the paper's Figure 5 observes ("the available memory at
// which different memory events get generated differs across devices,
// reflecting vendor choices"). Zero values disable a level.
type AvailThresholds struct {
	Moderate, Low, Critical units.Pages
}

// SignalEvent is one recorded pressure signal, as SignalCapturer logs it.
type SignalEvent struct {
	At        time.Duration
	Level     Level
	Available units.Pages // free + cached at emission time (Figure 5)
}

// KillEvent records an lmkd (or other) kill.
type KillEvent struct {
	At      time.Duration
	Process string
	Adj     int
	Reason  string
}

// Spec describes a process to start.
type Spec struct {
	Name   string
	Adj    int
	Cached bool
	// AnonBytes is the heap the process allocates at start.
	AnonBytes units.Bytes
	// FileWSBytes is the file-backed working set (code, assets) the
	// process keeps warm.
	FileWSBytes units.Bytes
	// HotAnonFrac is the fraction of the heap that is hot (resists
	// reclaim). Default 0.5.
	HotAnonFrac float64
	// WarmFor keeps a cached process's working set hot for this long
	// after start (recently used apps are not instantly reclaimable);
	// zero means a cached process is cold immediately.
	WarmFor time.Duration
	// RampTime spreads the initial AnonBytes allocation over this
	// duration (real app startups allocate over seconds, giving the
	// reclaim path a chance to keep up). Zero allocates at once.
	RampTime time.Duration
	// Threads to spawn beyond the main thread, by name.
	ExtraThreads []string
	// OnTrim receives pressure level changes (foreground apps).
	OnTrim func(Level)
	// OnKilled fires if the process is killed.
	OnKilled func(reason string)
}

// Process is a live process.
type Process struct {
	Name   string
	Adj    int
	Cached bool

	table     *Table
	anon      units.Pages // logical heap (resident + compressed)
	fileWS    units.Pages
	hotFrac   float64
	warmUntil time.Duration
	main      *sched.Thread
	extras    []*sched.Thread
	dead      bool
	lruSeq    int // larger = more recently used
	onTrim    func(Level)
	onKilled  func(string)
	growing   bool
}

// Main returns the process's main thread.
func (p *Process) Main() *sched.Thread { return p.main }

// Threads returns all live threads (main first).
func (p *Process) Threads() []*sched.Thread {
	out := []*sched.Thread{p.main}
	return append(out, p.extras...)
}

// Thread returns the named extra thread, or nil.
func (p *Process) Thread(name string) *sched.Thread {
	for _, t := range p.extras {
		if t.Key().Name == name {
			return t
		}
	}
	return nil
}

// Dead reports whether the process has been killed.
func (p *Process) Dead() bool { return p.dead }

// AnonPages returns the logical heap size in pages.
func (p *Process) AnonPages() units.Pages { return p.anon }

// PSS approximates the Proportional Set Size dumpsys reports: private
// heap plus the proportionally attributed file-backed mappings (§4.2).
func (p *Process) PSS() units.Bytes { return (p.anon + p.fileWS).Bytes() }

// Table is the process registry plus the pressure-signal generator.
type Table struct {
	clock *simclock.Clock
	sch   *sched.Scheduler
	mem   *mem.Memory
	disk  *blockio.Disk
	kswd  *kswapd.Daemon

	Thresholds SignalThresholds
	// Avail optionally adds available-memory signal thresholds
	// (vendor customization; see AvailThresholds).
	Avail AvailThresholds
	// EmitInterval re-emits the current non-Normal level periodically,
	// matching Android's repeated onTrimMemory delivery under
	// sustained pressure. Default 1s.
	EmitInterval time.Duration
	// OOMKillAfter is how long an allocation may stall below the min
	// watermark before the kernel OOM killer fires. Default 12s.
	OOMKillAfter time.Duration

	procs   []*Process
	level   Level
	lruSeq  int
	signals []SignalEvent
	kills   []KillEvent

	listeners    []func(Level)
	killWatchers []func(*Process, string)
}

// NewTable creates the registry and starts the signal re-emitter.
func NewTable(clock *simclock.Clock, sch *sched.Scheduler, m *mem.Memory, d *blockio.Disk, k *kswapd.Daemon, thresholds SignalThresholds) *Table {
	if thresholds == (SignalThresholds{}) {
		thresholds = DefaultThresholds
	}
	t := &Table{
		clock:        clock,
		sch:          sch,
		mem:          m,
		disk:         d,
		kswd:         k,
		Thresholds:   thresholds,
		EmitInterval: time.Second,
		OOMKillAfter: 12 * time.Second,
	}
	clock.Every(t.EmitInterval, func() {
		if t.level > Normal {
			t.emit(t.level)
		}
	})
	// Available memory moves continuously, so the vendor-threshold
	// path needs polling, not just process-table events.
	clock.Every(250*time.Millisecond, func() {
		if t.Avail != (AvailThresholds{}) {
			t.recompute()
		}
	})
	return t
}

// Subscribe registers a pressure-level listener (receives every emitted
// signal, including periodic re-emissions).
func (t *Table) Subscribe(fn func(Level)) { t.listeners = append(t.listeners, fn) }

// OnKill registers a watcher invoked after any process is killed.
func (t *Table) OnKill(fn func(*Process, string)) {
	t.killWatchers = append(t.killWatchers, fn)
}

// Level returns the current pressure level.
func (t *Table) Level() Level { return t.level }

// Signals returns the recorded signal log.
func (t *Table) Signals() []SignalEvent { return t.signals }

// Kills returns the recorded kill log.
func (t *Table) Kills() []KillEvent { return t.kills }

// Processes returns all live processes.
func (t *Table) Processes() []*Process {
	out := make([]*Process, 0, len(t.procs))
	for _, p := range t.procs {
		if !p.dead {
			out = append(out, p)
		}
	}
	return out
}

// Find returns the live process with the given name, or nil.
func (t *Table) Find(name string) *Process {
	for _, p := range t.procs {
		if !p.dead && p.Name == name {
			return p
		}
	}
	return nil
}

// CachedCount returns the number of live cached processes — the LRU
// length that drives signal generation.
func (t *Table) CachedCount() int {
	n := 0
	for _, p := range t.procs {
		if !p.dead && p.Cached {
			n++
		}
	}
	return n
}

// Start launches a process: spawns its threads, allocates its heap
// (possibly stalling in direct reclaim), and warms its file working
// set. The returned process is usable immediately; memory fills in
// asynchronously on the simulated clock.
func (t *Table) Start(spec Spec) *Process {
	if spec.HotAnonFrac <= 0 {
		spec.HotAnonFrac = 0.5
	}
	p := &Process{
		Name:     spec.Name,
		Adj:      spec.Adj,
		Cached:   spec.Cached,
		table:    t,
		hotFrac:  spec.HotAnonFrac,
		onTrim:   spec.OnTrim,
		onKilled: spec.OnKilled,
	}
	if spec.WarmFor > 0 {
		p.warmUntil = t.clock.Now() + spec.WarmFor
		// Re-derive the working set once the process cools off.
		t.clock.Schedule(spec.WarmFor, p.syncWorkingSet)
	}
	p.main = t.sch.Spawn("main", spec.Name, sched.ClassFair, 0)
	for _, name := range spec.ExtraThreads {
		p.extras = append(p.extras, t.sch.Spawn(name, spec.Name, sched.ClassFair, 0))
	}
	t.procs = append(t.procs, p)
	t.touchLRU(p)
	if spec.OnTrim != nil {
		t.Subscribe(func(l Level) {
			if !p.dead {
				p.onTrim(l)
			}
		})
	}
	if spec.FileWSBytes > 0 {
		p.fileWS = units.PagesOf(spec.FileWSBytes)
		t.mem.FileRead(p.fileWS)
	}
	if spec.AnonBytes > 0 {
		if spec.RampTime > 0 {
			const steps = 12
			chunk := spec.AnonBytes / steps
			for i := 0; i < steps; i++ {
				at := time.Duration(i) * spec.RampTime / steps
				t.clock.Schedule(at, func() { p.GrowAnon(chunk, nil) })
			}
			p.GrowAnon(spec.AnonBytes-steps*chunk, nil)
		} else {
			p.GrowAnon(spec.AnonBytes, nil)
		}
	}
	p.syncWorkingSet()
	t.recompute()
	return p
}

// touchLRU marks p most-recently-used.
func (t *Table) touchLRU(p *Process) {
	t.lruSeq++
	p.lruSeq = t.lruSeq
}

// syncWorkingSet registers the process's hot pages with the memory
// model.
func (p *Process) syncWorkingSet() {
	if p.dead {
		return
	}
	hotAnon := units.Pages(float64(p.anon) * p.hotFrac)
	hotFile := p.fileWS
	if p.Cached && p.table.clock.Now() >= p.warmUntil {
		// Idle cached apps: their pages are cold and reclaimable.
		hotAnon, hotFile = 0, 0
	}
	p.table.mem.SetWorkingSet(p.Name, mem.WorkingSet{Anon: hotAnon, File: hotFile})
}

// GrowAnon grows the heap by b bytes, going through the kernel
// allocation path: the fast path takes free pages; a watermark breach
// kicks kswapd and falls back to direct reclaim on the process's main
// thread, stalling it. An allocation that cannot make progress for
// OOMKillAfter invokes the kernel OOM killer. onDone (may be nil)
// fires when fully allocated.
func (p *Process) GrowAnon(b units.Bytes, onDone func()) {
	if p.dead {
		return
	}
	need := units.PagesOf(b)
	t := p.table
	stalledSince := time.Duration(-1)
	var step func()
	step = func() {
		if p.dead {
			return
		}
		if need > 0 && t.mem.BelowMin() {
			if stalledSince < 0 {
				stalledSince = t.clock.Now()
			} else if t.clock.Now()-stalledSince > t.OOMKillAfter {
				stalledSince = -1
				t.oomKill()
			}
		} else {
			stalledSince = -1
		}
		out := t.mem.AllocAnon(need)
		p.anon += out.Granted
		need -= out.Granted
		if out.NeedDirectReclaim == 0 {
			p.syncWorkingSet()
			if onDone != nil {
				onDone()
			}
			return
		}
		if t.kswd != nil {
			t.kswd.Kick()
		}
		kswapd.DirectReclaim(p.main, t.mem, t.disk, out.NeedDirectReclaim, func(freed units.Pages) {
			if p.dead {
				return
			}
			got := t.mem.ForceAllocAnon(out.NeedDirectReclaim)
			p.anon += got
			need -= got
			if need > 0 {
				// Stalled allocation: retry after a short backoff, as
				// the kernel would keep the thread in the allocator.
				t.clock.Schedule(10*time.Millisecond, step)
				return
			}
			p.syncWorkingSet()
			if onDone != nil {
				onDone()
			}
		})
	}
	step()
}

// SetCached moves the process between the foreground and the cached
// LRU (the user switched apps). Going cached cools the working set
// (after any warm grace) and makes the process killable at the given
// adj; coming foreground rewarms it.
func (p *Process) SetCached(cached bool, adj int) {
	if p.dead {
		return
	}
	p.Cached = cached
	p.Adj = adj
	p.table.touchLRU(p)
	p.syncWorkingSet()
	p.table.recompute()
}

// ShrinkAnon releases b bytes of heap (e.g. an app trimming caches in
// response to onTrimMemory).
func (p *Process) ShrinkAnon(b units.Bytes) {
	if p.dead {
		return
	}
	give := units.PagesOf(b)
	if give > p.anon {
		give = p.anon
	}
	p.anon -= give
	p.table.mem.FreeAnonProportional(give)
	p.syncWorkingSet()
}

// Kill terminates the process: threads die, the heap is freed, the
// file working set goes cold, and OnKilled fires.
func (t *Table) Kill(p *Process, reason string) {
	if p.dead {
		return
	}
	p.dead = true
	t.sch.KillProcess(p.Name)
	t.mem.FreeAnonProportional(p.anon)
	t.mem.DropFileClean(p.fileWS)
	t.mem.RemoveWorkingSet(p.Name)
	p.anon = 0
	p.fileWS = 0
	t.kills = append(t.kills, KillEvent{At: t.clock.Now(), Process: p.Name, Adj: p.Adj, Reason: reason})
	if p.onKilled != nil {
		p.onKilled(reason)
	}
	for _, fn := range t.killWatchers {
		fn(p, reason)
	}
	t.recompute()
}

// KillCandidates returns live killable processes ordered by descending
// oom_adj (then least-recently-used first), restricted to adj >= minAdj.
// This is the order lmkd picks victims in (§2).
func (t *Table) KillCandidates(minAdj int) []*Process {
	var out []*Process
	for _, p := range t.procs {
		if !p.dead && p.Adj >= minAdj {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Adj != out[j].Adj {
			return out[i].Adj > out[j].Adj
		}
		return out[i].lruSeq < out[j].lruSeq
	})
	return out
}

// oomAdjBadnessDivisor scales the oom_adj bonus in the badness score:
// each adj point is worth Total/5000 pages, i.e. the full adj range
// (±1000) can swing badness by ±20% of RAM, mirroring the kernel's
// oom_score_adj normalization. It is a dimensionless scale factor,
// not a page count.
const oomAdjBadnessDivisor = 5000

// oomKill emulates the kernel OOM killer: among killable processes it
// picks the highest "badness" — dominated by memory size, shifted by
// oom_adj — and kills it. The foreground video client, being the
// largest allocation on an entry-level device, is the usual victim.
func (t *Table) oomKill() {
	var victim *Process
	var worst units.Pages = -1
	for _, p := range t.procs {
		if p.dead || p.Adj < AdjForeground {
			continue
		}
		badness := p.anon + units.Pages(p.Adj)*t.mem.Total()/oomAdjBadnessDivisor
		if badness > worst {
			worst = badness
			victim = p
		}
	}
	if victim != nil {
		t.Kill(victim, "oom")
	}
}

// recompute re-derives the pressure level from the cached-process count
// and emits a signal on change.
func (t *Table) recompute() {
	count := t.CachedCount()
	level := Normal
	switch {
	case count <= t.Thresholds.Critical:
		level = Critical
	case count <= t.Thresholds.Low:
		level = Low
	case count <= t.Thresholds.Moderate:
		level = Moderate
	}
	if avail := t.mem.Available(); t.Avail != (AvailThresholds{}) {
		switch {
		case t.Avail.Critical > 0 && avail <= t.Avail.Critical:
			level = maxLevel(level, Critical)
		case t.Avail.Low > 0 && avail <= t.Avail.Low:
			level = maxLevel(level, Low)
		case t.Avail.Moderate > 0 && avail <= t.Avail.Moderate:
			level = maxLevel(level, Moderate)
		}
	}
	if level != t.level {
		t.level = level
		t.emit(level)
	}
}

func maxLevel(a, b Level) Level {
	if a > b {
		return a
	}
	return b
}

func (t *Table) emit(l Level) {
	t.signals = append(t.signals, SignalEvent{At: t.clock.Now(), Level: l, Available: t.mem.Available()})
	for _, fn := range t.listeners {
		fn(l)
	}
}
