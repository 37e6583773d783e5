// Package sched simulates the Android/Linux CPU scheduler at the level
// of detail the paper's §5 analysis depends on.
//
// The model is tick-accurate: at every tick boundary (1 ms by default)
// the scheduler retires the interval that just ended and assigns
// runnable threads to cores for the next. Two scheduling classes exist,
// with the exact priority relationship the paper identifies as the root
// cause of frame drops:
//
//   - ClassRT: strictly prioritized over everything else. The storage
//     I/O daemon mmcqd runs here, so it "steals CPU time from foreground
//     processes" (§5, Table 5).
//   - ClassFair: a CFS-like fair class picked by lowest virtual runtime.
//     Video client threads AND kswapd run here, so "Firefox threads have
//     to fairly share the CPU with the CPU-hungry thread — kswapd" (§5).
//
// Threads execute FIFO queues of CPU jobs and may contain I/O barriers
// (uninterruptible sleep, state D) that the block layer resolves. Every
// state change is reported to a trace.Tracer, which is how Table 4
// (time in state), Figure 13 (kswapd states) and Table 5 (preemption
// triples) are regenerated.
//
// Cores may have heterogeneous speeds (big.LITTLE, e.g. the Nexus 6P's
// 4×1.55 GHz + 4×2.0 GHz): job costs are expressed in reference-CPU time
// and a core of speed s completes s ticks of reference work per tick.
//
// Not every tick runs the step loop. While every runnable thread holds
// a core (the idle case included), a tick that completes no job and
// meets no other clock event changes nothing but counters, so step
// postpones its next event past such ticks (simclock.Postpone, bounded
// by simclock.Horizon) and the next step catches up on them in closed
// form before retiring its own tick. Results are the same as stepping
// every tick: the same transitions at the same instants, and the same
// counters whenever a callback, another event or a caller between runs
// can read them. Ticks reports how many ticks ran the loop and how
// many were skipped. Contended ticks, where more threads want a core
// than there are cores, still run one by one.
//
// The step loop is the hottest code in the simulator after the clock
// itself. It is written allocation-free in steady state: job structs
// are recycled through a free list, candidate/scratch slices are
// reused tick to tick, selection is marked with a tick stamp instead of
// a map, and the fair-class minimum vruntime is cached between ticks
// instead of recomputed on every wake.
package sched

import (
	"fmt"
	"math"
	"sort"
	"time"

	"coalqoe/internal/simclock"
	"coalqoe/internal/telemetry"
	"coalqoe/internal/trace"
)

// Class is a scheduling class.
type Class int

// Scheduling classes.
const (
	// ClassFair is the default time-sharing class (CFS-like).
	ClassFair Class = iota
	// ClassRT is strictly prioritized over ClassFair; used by mmcqd.
	ClassRT
)

// DefaultTick is the scheduling quantum of the simulation.
const DefaultTick = time.Millisecond

type jobKind int

const (
	jobCPU jobKind = iota
	jobIOBarrier
)

type job struct {
	kind      jobKind
	remaining time.Duration // reference-CPU time for jobCPU
	onDone    func()
	ioDone    bool // for jobIOBarrier: completion arrived
}

// Thread is a schedulable entity. Create threads with Scheduler.Spawn.
type Thread struct {
	key   trace.ThreadKey
	class Class
	nice  int
	sched *Scheduler

	state     trace.State
	vruntime  time.Duration
	weight    float64
	wokenAt   time.Duration // for RT FIFO ordering
	core      int           // core while Running, else -1
	preferred int           // soft core affinity; -1 = none
	dead      bool

	// jobs[jobHead:] is the pending FIFO. Popping advances jobHead
	// instead of reslicing, so the backing array (and its capacity) is
	// reused once the queue drains, and append never reallocates in
	// steady state.
	jobs    []*job
	jobHead int

	// selTick marks the scheduler tick that last selected this thread
	// for a core — a stamp comparison replaces the per-tick selection
	// map.
	selTick int64

	// accounting
	cpuTime time.Duration
}

// queueLen returns the number of queued (unfinished) jobs.
func (t *Thread) queueLen() int { return len(t.jobs) - t.jobHead }

// headJob returns the queue head; call only when queueLen() > 0.
func (t *Thread) headJob() *job { return t.jobs[t.jobHead] }

// popJob removes the queue head and recycles it. The job must already
// be finished: nothing may touch it after this call.
func (t *Thread) popJob() {
	j := t.jobs[t.jobHead]
	t.jobs[t.jobHead] = nil
	t.jobHead++
	if t.jobHead == len(t.jobs) {
		t.jobs = t.jobs[:0]
		t.jobHead = 0
	}
	t.sched.freeJob(j)
}

// Key returns the thread's trace identity.
func (t *Thread) Key() trace.ThreadKey { return t.key }

// SetPreferredCore gives the thread a soft core affinity: the
// dispatcher places it there when that core is available, drastically
// reducing migrations (the §7 scheduling suggestion for kswapd).
// Pass -1 to clear.
func (t *Thread) SetPreferredCore(core int) { t.preferred = core }

// State returns the thread's current scheduler state.
func (t *Thread) State() trace.State { return t.state }

// CPUTime returns total reference-CPU time consumed by the thread.
func (t *Thread) CPUTime() time.Duration { return t.cpuTime }

// QueueLen returns the number of queued (unfinished) jobs.
func (t *Thread) QueueLen() int { return t.queueLen() }

// Dead reports whether the thread has been killed.
func (t *Thread) Dead() bool { return t.dead }

// PendingWork returns the total queued reference-CPU time.
func (t *Thread) PendingWork() time.Duration {
	var sum time.Duration
	for _, j := range t.jobs[t.jobHead:] {
		if j.kind == jobCPU {
			sum += j.remaining
		}
	}
	return sum
}

// Enqueue appends a CPU job costing cost of reference-CPU time. onDone
// (may be nil) fires when the job completes. Enqueueing on a dead
// thread is a no-op.
func (t *Thread) Enqueue(cost time.Duration, onDone func()) {
	if t.dead {
		return
	}
	if cost < 0 {
		cost = 0
	}
	j := t.sched.newJob()
	j.kind = jobCPU
	j.remaining = cost
	j.onDone = onDone
	t.jobs = append(t.jobs, j)
	t.wake()
}

// EnqueueIOBarrier appends an I/O barrier: when the barrier reaches the
// queue head the thread enters uninterruptible sleep (D) until the
// returned completion function is called. Jobs queued behind the
// barrier do not run until it resolves. The completion function is
// idempotent and safe to call after the thread dies.
//
// The returned closure is the one place a job pointer outlives the
// queue, which is why it must never touch j after its first call: a
// barrier only leaves the queue once ioDone is set, i.e. after the
// first call flipped done, and by then j may have been recycled.
func (t *Thread) EnqueueIOBarrier() (complete func()) {
	if t.dead {
		return func() {}
	}
	j := t.sched.newJob()
	j.kind = jobIOBarrier
	t.jobs = append(t.jobs, j)
	t.wake()
	done := false
	return func() {
		if done || t.dead {
			done = true
			return
		}
		done = true
		j.ioDone = true
		t.sched.reapBarriers(t)
	}
}

// wake moves an idle/sleeping thread to Runnable.
func (t *Thread) wake() {
	if t.dead || t.state == trace.Running || t.state == trace.Runnable || t.state == trace.RunnablePreempted {
		return
	}
	if t.blockedOnIO() {
		return // stays in D until the barrier resolves
	}
	now := t.sched.clock.Now()
	t.wokenAt = now
	// Prevent a long-sleeping thread from monopolizing the CPU by
	// carrying an ancient (tiny) vruntime: re-sync to the minimum.
	if t.class == ClassFair {
		if mv, ok := t.sched.minVruntime(); ok && t.vruntime < mv {
			t.vruntime = mv
		}
	}
	t.setState(trace.Runnable)
}

// blockedOnIO reports whether the queue head is an unresolved barrier.
func (t *Thread) blockedOnIO() bool {
	return t.queueLen() > 0 && t.headJob().kind == jobIOBarrier && !t.headJob().ioDone
}

// participating reports whether a fair thread in state s counts toward
// the minimum-vruntime pool.
func participating(s trace.State) bool {
	return s == trace.Running || s == trace.Runnable || s == trace.RunnablePreempted
}

func (t *Thread) setState(s trace.State) {
	if t.state == s {
		return
	}
	// Maintain the cached fair-class minimum vruntime across membership
	// changes (see minVruntime). A thread leaving the pool can only
	// matter if it carried the cached minimum; a thread entering can
	// only pull the minimum down to its own vruntime.
	if t.class == ClassFair {
		sc := t.sched
		was, is := participating(t.state), participating(s)
		if was && !is {
			if sc.minVrValid && !sc.minVrEmpty && t.vruntime == sc.minVrCache {
				sc.minVrValid = false
			}
		} else if is && !was && !t.dead {
			if sc.minVrValid {
				if sc.minVrEmpty || t.vruntime < sc.minVrCache {
					sc.minVrCache = t.vruntime
					sc.minVrEmpty = false
				}
			}
		}
	}
	t.state = s
	core := -1
	if s == trace.Running {
		core = t.core
	}
	t.sched.tracer.Transition(t.key.TID, s, core, t.sched.clock.Now())
}

// Scheduler assigns threads to cores each tick.
type Scheduler struct {
	clock      *simclock.Clock
	tracer     *trace.Tracer
	coreSpeed  []float64
	coreOrder  []int // core indices, fastest first; ties in index order
	tick       time.Duration
	threads    []*Thread
	nextTID    int
	stopped    bool
	dispatched bool      // a dispatch interval is in flight
	running    []*Thread // per core; nil = idle
	idleTime   time.Duration
	busyTime   time.Duration
	totalTicks int64
	preempts   int64

	// stepFn is the bound step method, created once so the tick loop
	// doesn't allocate a fresh closure every millisecond.
	stepFn func()

	// stepEv is the step event, one for the scheduler's lifetime: each
	// step re-queues it with RequeueTick instead of scheduling a fresh
	// one, so it must never be handed out. When every runnable thread
	// holds a core, step postpones it past the ticks that would only
	// repeat the same accounting (see fastForwardTarget); pendingSkip
	// counts those ticks for the next step to catch up on, and
	// skippedTicks counts all ticks caught up on that way.
	stepEv       *simclock.Event
	pendingSkip  int64
	skippedTicks int64

	// jobFree recycles job structs: a job leaves a thread's queue only
	// when finished (or its thread died), so popJob can return it here
	// for the next Enqueue.
	jobFree []*job

	// Per-tick scratch buffers, reused so a steady-state tick performs
	// no allocations.
	cands       []*Thread
	arrivals    []*Thread
	needCore    []*Thread
	rest        []*Thread
	nextRunning []*Thread

	// Cached fair-class minimum vruntime over participating threads
	// (see minVruntime). minVrEmpty is meaningful only when valid.
	minVrCache time.Duration
	minVrValid bool
	minVrEmpty bool
}

// Config configures a Scheduler.
type Config struct {
	// CoreSpeeds gives one relative speed per core (1.0 = reference).
	CoreSpeeds []float64
	// Tick is the scheduling quantum; DefaultTick if zero.
	Tick time.Duration
	// Tracer receives all state transitions; required.
	Tracer *trace.Tracer
}

// New creates a Scheduler and starts its tick loop on clock.
func New(clock *simclock.Clock, cfg Config) *Scheduler {
	if len(cfg.CoreSpeeds) == 0 {
		panic("sched: no cores configured")
	}
	if cfg.Tracer == nil {
		panic("sched: Tracer is required")
	}
	tick := cfg.Tick
	if tick <= 0 {
		tick = DefaultTick
	}
	s := &Scheduler{
		clock:       clock,
		tracer:      cfg.Tracer,
		coreSpeed:   append([]float64(nil), cfg.CoreSpeeds...),
		coreOrder:   make([]int, len(cfg.CoreSpeeds)),
		tick:        tick,
		running:     make([]*Thread, len(cfg.CoreSpeeds)),
		nextRunning: make([]*Thread, len(cfg.CoreSpeeds)),
		nextTID:     1,
	}
	for i := range s.coreOrder {
		s.coreOrder[i] = i
	}
	// Free cores fill fastest first: on big.LITTLE parts decode lands on
	// a big core while one is idle. The stable sort keeps homogeneous
	// devices in index order.
	sort.SliceStable(s.coreOrder, func(a, b int) bool {
		return s.coreSpeed[s.coreOrder[a]] > s.coreSpeed[s.coreOrder[b]]
	})
	s.stepFn = s.step
	// Ticks fire at t=0, tick, 2·tick, …: each tick retires the work of
	// the interval that just ended, then dispatches the next interval.
	s.stepEv = clock.ScheduleTick(0, s.stepFn)
	return s
}

func (s *Scheduler) newJob() *job {
	if n := len(s.jobFree); n > 0 {
		j := s.jobFree[n-1]
		s.jobFree[n-1] = nil
		s.jobFree = s.jobFree[:n-1]
		return j
	}
	return &job{}
}

func (s *Scheduler) freeJob(j *job) {
	*j = job{}
	s.jobFree = append(s.jobFree, j)
}

// Stop halts the tick loop (e.g. at the end of a session).
func (s *Scheduler) Stop() { s.stopped = true }

// Cores returns the number of simulated cores.
func (s *Scheduler) Cores() int { return len(s.coreSpeed) }

// Tick returns the scheduling quantum.
func (s *Scheduler) Tick() time.Duration { return s.tick }

// Ticks returns how many ticks the scheduler has retired so far:
// stepped ran the full per-tick step, skipped were caught up on in
// closed form because nothing could happen in them (see step).
func (s *Scheduler) Ticks() (stepped, skipped int64) {
	return s.totalTicks - s.skippedTicks, s.skippedTicks
}

// Preemptions returns the cumulative count of displaced-by-arrival
// events (the same events the tracer records as preemption triples).
func (s *Scheduler) Preemptions() int64 { return s.preempts }

// Instrument registers the scheduler's telemetry: runnable-queue
// length (threads waiting for a core — the contention Figure 13's
// kswapd state shift shows), running count, cumulative preemptions,
// and core utilization.
func (s *Scheduler) Instrument(reg *telemetry.Registry) {
	reg.SampleFunc("sched.runnable", func() float64 {
		n := 0
		for _, t := range s.threads {
			if !t.dead && (t.state == trace.Runnable || t.state == trace.RunnablePreempted) {
				n++
			}
		}
		return float64(n)
	})
	reg.SampleFunc("sched.running", func() float64 {
		n := 0
		for _, t := range s.running {
			if t != nil {
				n++
			}
		}
		return float64(n)
	})
	reg.SampleFunc("sched.preemptions", func() float64 { return float64(s.preempts) })
	reg.SampleFunc("sched.utilization", s.Utilization)
}

// Utilization returns the fraction of core-time spent busy so far.
func (s *Scheduler) Utilization() float64 {
	total := s.busyTime + s.idleTime
	if total == 0 {
		return 0
	}
	return float64(s.busyTime) / float64(total)
}

// Spawn creates a thread in the Sleeping state.
func (s *Scheduler) Spawn(name, process string, class Class, nice int) *Thread {
	t := &Thread{
		key:       trace.ThreadKey{TID: s.nextTID, Name: name, Process: process},
		class:     class,
		nice:      nice,
		sched:     s,
		state:     trace.Sleeping,
		weight:    niceWeight(nice),
		core:      -1,
		preferred: -1,
	}
	s.nextTID++
	s.threads = append(s.threads, t)
	s.tracer.Register(t.key, trace.Sleeping, s.clock.Now())
	return t
}

// Kill terminates a thread: pending jobs are dropped and it never runs
// again. The thread is removed from the scheduler's table, so long
// sessions that spawn and kill many processes don't pay for the corpses
// on every tick.
func (s *Scheduler) Kill(t *Thread) {
	if t.dead {
		return
	}
	t.dead = true
	// Dropped jobs are finished as far as the queue is concerned; their
	// barrier closures check t.dead before touching the job, so
	// recycling here is safe.
	for _, j := range t.jobs[t.jobHead:] {
		s.freeJob(j)
	}
	t.jobs = nil
	t.jobHead = 0
	if t.state == trace.Running {
		s.vacateCore(t)
	}
	t.setState(trace.Sleeping)
	s.tracer.Unregister(t.key.TID, s.clock.Now())
	for i, x := range s.threads {
		if x == t {
			s.threads = append(s.threads[:i], s.threads[i+1:]...)
			break
		}
	}
}

// KillProcess kills every thread of the named process.
func (s *Scheduler) KillProcess(process string) int {
	n := 0
	// Backwards: Kill compacts s.threads in place, which only moves
	// entries we have already visited.
	for i := len(s.threads) - 1; i >= 0; i-- {
		t := s.threads[i]
		if !t.dead && t.key.Process == process {
			s.Kill(t)
			n++
		}
	}
	return n
}

func (s *Scheduler) vacateCore(t *Thread) {
	if t.core >= 0 && t.core < len(s.running) && s.running[t.core] == t {
		s.running[t.core] = nil
	}
	t.core = -1
}

// niceWeight approximates the kernel's nice-to-weight table:
// each nice step changes weight by ~1.25×.
func niceWeight(nice int) float64 {
	return 1024 / math.Pow(1.25, float64(nice))
}

// minVruntime returns the smallest vruntime over participating fair
// threads. The value is cached: setState maintains it across pool
// membership changes, the retire phase invalidates it when a running
// thread's vruntime advances, and this function recomputes it lazily.
// Enqueue-heavy workloads call this (via wake) many times per tick, so
// the cache turns an O(threads) scan per wake into one per tick.
func (s *Scheduler) minVruntime() (time.Duration, bool) {
	if s.minVrValid {
		return s.minVrCache, !s.minVrEmpty
	}
	var mv time.Duration
	found := false
	for _, t := range s.threads {
		if t.dead || t.class != ClassFair {
			continue
		}
		if participating(t.state) {
			if !found || t.vruntime < mv {
				mv = t.vruntime
				found = true
			}
		}
	}
	s.minVrCache, s.minVrEmpty, s.minVrValid = mv, !found, true
	return mv, found
}

// reapBarriers removes resolved barriers from the head of t's queue and
// wakes the thread if work follows.
func (s *Scheduler) reapBarriers(t *Thread) {
	for t.queueLen() > 0 && t.headJob().kind == jobIOBarrier && t.headJob().ioDone {
		done := t.headJob().onDone
		t.popJob()
		if done != nil {
			done()
		}
	}
	if t.state == trace.UninterruptibleSleep {
		if t.queueLen() > 0 {
			t.wokenAt = s.clock.Now()
			t.setState(trace.Runnable)
		} else {
			t.setState(trace.Sleeping)
		}
	}
}

// runnable reports whether t wants a core this tick.
func runnable(t *Thread) bool {
	if t.dead || t.queueLen() == 0 {
		return false
	}
	return !t.blockedOnIO()
}

// lessThread is the candidate order: RT first (FIFO by wake time), then
// fair by vruntime. Ties broken by TID, so the order is total and the
// sort deterministic.
func lessThread(a, b *Thread) bool {
	if a.class != b.class {
		return a.class == ClassRT
	}
	if a.class == ClassRT {
		if a.wokenAt != b.wokenAt {
			return a.wokenAt < b.wokenAt
		}
		return a.key.TID < b.key.TID
	}
	if a.vruntime != b.vruntime {
		return a.vruntime < b.vruntime
	}
	return a.key.TID < b.key.TID
}

// sortCands insertion-sorts the candidate slice by lessThread. Runnable
// counts are small (tens at worst), where insertion sort beats the
// generic sort and allocates nothing.
func sortCands(cands []*Thread) {
	for i := 1; i < len(cands); i++ {
		t := cands[i]
		j := i - 1
		for j >= 0 && lessThread(t, cands[j]) {
			cands[j+1] = cands[j]
			j--
		}
		cands[j+1] = t
	}
}

// step runs at a tick boundary: it retires the interval that just
// ended, then dispatches threads for the interval that starts now. When
// the previous step postponed this one, it first catches up on the
// skipped ticks.
func (s *Scheduler) step() {
	if s.stopped {
		return
	}
	now := s.clock.Now()
	s.clock.RequeueTick(s.stepEv, s.tick)
	if s.pendingSkip > 0 {
		s.fastForward(s.pendingSkip)
		s.pendingSkip = 0
	}
	s.totalTicks++

	// Retire phase: account the work performed during [now-tick, now).
	if s.dispatched {
		for core, t := range s.running {
			if t == nil {
				s.idleTime += s.tick
				continue
			}
			s.busyTime += s.tick
			budget := s.tickBudget(core)
			t.cpuTime += budget
			if t.class == ClassFair {
				if s.minVrValid && !s.minVrEmpty && t.vruntime == s.minVrCache {
					// The pool minimum is about to advance.
					s.minVrValid = false
				}
				t.vruntime += s.tickVruntime(t)
			}
			s.consume(t, budget)
		}
	}
	s.dispatched = true

	// Settle threads that finished their work or hit an I/O barrier
	// during the retired interval.
	for _, t := range s.threads {
		if t.dead {
			continue
		}
		if t.state == trace.Running && t.queueLen() == 0 {
			s.vacateCore(t)
			s.tracer.PreemptorStopped(t.key.TID, now)
			t.setState(trace.Sleeping)
		} else if t.blockedOnIO() && t.state != trace.UninterruptibleSleep {
			if t.state == trace.Running {
				s.vacateCore(t)
				s.tracer.PreemptorStopped(t.key.TID, now)
			}
			t.setState(trace.UninterruptibleSleep)
		}
	}

	cands := s.cands[:0]
	for _, t := range s.threads {
		if runnable(t) {
			cands = append(cands, t)
		}
	}
	sortCands(cands)
	s.cands = cands

	ncores := len(s.coreSpeed)
	selected := cands
	if len(selected) > ncores {
		selected = selected[:ncores]
	}
	for _, t := range selected {
		t.selTick = s.totalTicks
	}

	// Displacement: threads that were running but are not selected.
	// New arrivals among the selected (were not running last tick).
	arrivals := s.arrivals[:0]
	for _, t := range selected {
		if t.state != trace.Running {
			arrivals = append(arrivals, t)
		}
	}
	s.arrivals = arrivals

	// Record preemptions: a displaced thread was preempted if some
	// newly arriving selected thread outranks it. Attribute the event
	// to the highest-priority arrival (RT beats fair; then ordering).
	for _, v := range s.threads {
		if v.state != trace.Running || v.selTick == s.totalTicks {
			continue
		}
		s.vacateCore(v)
		s.tracer.PreemptorStopped(v.key.TID, now)
		if v.queueLen() == 0 {
			v.setState(trace.Sleeping)
			continue
		}
		if v.blockedOnIO() {
			v.setState(trace.UninterruptibleSleep)
			continue
		}
		if len(arrivals) > 0 {
			v.setState(trace.RunnablePreempted)
			s.preempts++
			s.tracer.RecordPreemption(v.key, arrivals[0].key, now)
		} else {
			v.setState(trace.Runnable)
		}
	}

	// Core assignment with affinity: keep previous core when possible.
	newRunning := s.nextRunning
	for i := range newRunning {
		newRunning[i] = nil
	}
	needCore := s.needCore[:0]
	for _, t := range selected {
		if t.core >= 0 && t.core < ncores && s.running[t.core] == t && newRunning[t.core] == nil {
			newRunning[t.core] = t
		} else {
			needCore = append(needCore, t)
		}
	}
	s.needCore = needCore
	// Soft affinity first: place threads on their preferred core when
	// it is open.
	rest := s.rest[:0]
	for _, t := range needCore {
		if t.preferred >= 0 && t.preferred < ncores && newRunning[t.preferred] == nil {
			newRunning[t.preferred] = t
			t.core = t.preferred
			continue
		}
		rest = append(rest, t)
	}
	s.rest = rest
	free := 0 // index into coreOrder
	for _, t := range rest {
		for free < ncores && newRunning[s.coreOrder[free]] != nil {
			free++
		}
		if free >= ncores {
			break
		}
		core := s.coreOrder[free]
		newRunning[core] = t
		t.core = core
	}
	s.running, s.nextRunning = newRunning, s.running

	// Mark the dispatched threads Running for the interval [now, now+tick).
	for core, t := range s.running {
		if t == nil {
			continue
		}
		t.core = core
		t.setState(trace.Running)
	}

	if k := s.fastForwardTarget(now); k > 1 {
		s.clock.Postpone(s.stepEv, now+time.Duration(k)*s.tick)
		s.pendingSkip = k - 1
	}
}

// fastForwardTarget returns how many ticks from now the next step must
// run, given the threads just dispatched; 1 means the very next tick.
//
// While every runnable thread holds a core, a tick that completes no
// job and coincides with no other event only repeats the same
// accounting: every running thread keeps its core, no callback fires,
// and no state changes. Such ticks can be skipped and caught up on in
// closed form. The next step that must run is the earlier of the tick
// that completes the first running job (ceil(remaining / per-tick
// budget) on its core) and the last tick boundary strictly before
// clock.Horizon: the next other event, or one past the deadline of the
// RunUntil in progress, so callers read up-to-date counters when it
// returns. Postponing to a boundary strictly before every other event
// keeps the step's dispatch order among them unchanged.
func (s *Scheduler) fastForwardTarget(now time.Duration) int64 {
	if s.stopped {
		return 1 // the next step is a no-op; keep its time
	}
	if len(s.cands) > len(s.coreSpeed) {
		return 1 // contended: selection can change any tick
	}
	// The largest k with now + k·tick < horizon. Computed as a quotient
	// of the remaining gap so it cannot overflow, even when Run leaves
	// the horizon at math.MaxInt64.
	k := int64((s.clock.Horizon(s.stepEv) - now - 1) / s.tick)
	for core, t := range s.running {
		if t == nil {
			continue
		}
		// A resolved barrier at the head has nothing remaining, so it
		// holds k at 0: it is reaped next tick.
		j := t.headJob()
		budget := s.tickBudget(core)
		if budget <= 0 {
			continue // never completes
		}
		done := int64(j.remaining / budget)
		if j.remaining%budget != 0 {
			done++
		}
		k = min(k, done)
	}
	return k
}

// fastForward retires n ticks in which nothing but accounting happens
// (see fastForwardTarget): idle and busy time, CPU time, vruntime and
// head-job remaining each move by n times the per-tick amount of the
// retire phase in step. No job completes, so no callback fires and no
// thread changes state.
func (s *Scheduler) fastForward(n int64) {
	span := time.Duration(n) * s.tick
	for core, t := range s.running {
		if t == nil {
			s.idleTime += span
			continue
		}
		s.busyTime += span
		budget := time.Duration(n) * s.tickBudget(core)
		t.cpuTime += budget
		if t.class == ClassFair {
			if s.minVrValid && !s.minVrEmpty && t.vruntime == s.minVrCache {
				s.minVrValid = false
			}
			t.vruntime += time.Duration(n) * s.tickVruntime(t)
		}
		t.headJob().remaining -= budget
	}
	s.totalTicks += n
	s.skippedTicks += n
}

// tickBudget is the reference-CPU work a core completes in one tick.
func (s *Scheduler) tickBudget(core int) time.Duration {
	return time.Duration(float64(s.tick) * s.coreSpeed[core])
}

// tickVruntime is the vruntime a fair thread accrues per tick it runs.
func (s *Scheduler) tickVruntime(t *Thread) time.Duration {
	return time.Duration(float64(s.tick) * 1024 / t.weight)
}

// consume burns budget of reference-CPU time from t's job queue.
func (s *Scheduler) consume(t *Thread, budget time.Duration) {
	for budget > 0 && t.queueLen() > 0 {
		j := t.headJob()
		if j.kind == jobIOBarrier {
			if !j.ioDone {
				return // blocked; handled by caller
			}
			done := j.onDone
			t.popJob()
			if done != nil {
				done()
			}
			continue
		}
		if j.remaining > budget {
			j.remaining -= budget
			return
		}
		budget -= j.remaining
		done := j.onDone
		t.popJob()
		if done != nil {
			done()
		}
		if t.dead {
			return
		}
	}
}

// Threads returns all live threads (for diagnostics).
func (s *Scheduler) Threads() []*Thread {
	out := make([]*Thread, 0, len(s.threads))
	for _, t := range s.threads {
		if !t.dead {
			out = append(out, t)
		}
	}
	return out
}

// String summarizes the scheduler configuration.
func (s *Scheduler) String() string {
	return fmt.Sprintf("sched{cores=%d tick=%v threads=%d}", len(s.coreSpeed), s.tick, len(s.threads))
}
