package sched

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"coalqoe/internal/simclock"
	"coalqoe/internal/trace"
)

// The fast-forward equivalence battery. A scheduler that skips ticks
// must be indistinguishable from one that steps every tick: same tracer
// transitions, same counters whenever anything can read them. Each mix
// below runs twice, bare (free to skip) and with a no-op clock.Every at
// the tick period, which pins the clock's horizon to the next tick
// boundary so no tick is ever skipped. Both runs log every read a
// callback makes and a snapshot of every counter after each RunUntil
// deadline; the logs and the final traces must match exactly.

// mixThread is one thread of a generated mix.
type mixThread struct {
	class     Class
	nice      int
	preferred int
}

// mixAction is one clock event of a generated mix: at time at, it
// enqueues cost on thread (or kills it). The job's onDone reads the
// reader thread's counters and, when wake is set, wakes that thread
// with a follow-up job. ioDelay >= 0 puts an I/O barrier, resolved by a
// clock event ioDelay later, between the job and a second job.
type mixAction struct {
	at        time.Duration
	thread    int
	cost      time.Duration
	kill      bool
	reader    int
	wake      int // -1: none
	wakeCost  time.Duration
	ioDelay   time.Duration // -1: no barrier
	afterCost time.Duration
}

// mix is a generated workload plus the deadlines it is observed at.
type mix struct {
	speeds    []float64
	threads   []mixThread
	actions   []mixAction
	deadlines []time.Duration
}

// genMix draws a random mix: fair and RT threads on cores of mixed
// speed, zero-cost jobs, I/O barriers, kills, wake-ups and cross-thread
// reads, observed at deadlines that fall between tick boundaries.
func genMix(r *rand.Rand) mix {
	var m mix
	speedChoices := []float64{0.5, 0.7, 1, 1.55, 2}
	for i := 1 + r.Intn(4); i > 0; i-- {
		m.speeds = append(m.speeds, speedChoices[r.Intn(len(speedChoices))])
	}
	nthreads := 1 + r.Intn(6)
	for i := 0; i < nthreads; i++ {
		th := mixThread{class: ClassFair, nice: r.Intn(11) - 5, preferred: -1}
		if r.Intn(4) == 0 {
			th.class = ClassRT
		}
		if r.Intn(3) == 0 {
			th.preferred = r.Intn(len(m.speeds))
		}
		m.threads = append(m.threads, th)
	}
	cost := func() time.Duration {
		switch r.Intn(5) {
		case 0:
			return 0
		case 1:
			return time.Duration(r.Intn(int(time.Millisecond)))
		default:
			return time.Duration(r.Int63n(int64(40 * time.Millisecond)))
		}
	}
	horizon := time.Duration(100+r.Intn(400)) * time.Millisecond
	for i := 3 + r.Intn(30); i > 0; i-- {
		a := mixAction{
			at:      time.Duration(r.Int63n(int64(horizon))),
			thread:  r.Intn(nthreads),
			cost:    cost(),
			kill:    r.Intn(25) == 0,
			reader:  r.Intn(nthreads),
			wake:    -1,
			ioDelay: -1,
		}
		if r.Intn(3) == 0 {
			a.wake, a.wakeCost = r.Intn(nthreads), cost()
		}
		if r.Intn(4) == 0 {
			a.ioDelay, a.afterCost = time.Duration(r.Int63n(int64(20*time.Millisecond))), cost()
		}
		m.actions = append(m.actions, a)
	}
	// Deadlines strictly between tick boundaries, in increasing order.
	var d time.Duration
	for i := 1 + r.Intn(5); i > 0; i-- {
		d += time.Duration(1+r.Intn(150))*DefaultTick + time.Duration(1+r.Int63n(int64(DefaultTick)-1))
		m.deadlines = append(m.deadlines, d)
	}
	return m
}

// mixRun is the observable outcome of one run of a mix.
type mixRun struct {
	log     []string
	trace   string
	stepped int64
	skipped int64
}

// runMix plays m once; pinned adds the no-op tick-period event.
func runMix(m mix, pinned bool) mixRun {
	clock := simclock.New(1)
	tr := trace.New(0)
	tr.KeepIntervals(true)
	s := New(clock, Config{CoreSpeeds: m.speeds, Tracer: tr})
	if pinned {
		clock.Every(DefaultTick, func() {})
	}
	var threads []*Thread
	for i, spec := range m.threads {
		th := s.Spawn(fmt.Sprintf("t%d", i), "mix", spec.class, spec.nice)
		th.SetPreferredCore(spec.preferred)
		threads = append(threads, th)
	}
	var out mixRun
	logf := func(format string, args ...any) {
		out.log = append(out.log, fmt.Sprintf("%v ", clock.Now())+fmt.Sprintf(format, args...))
	}
	for i, a := range m.actions {
		i, a := i, a
		clock.At(a.at, func() {
			th := threads[a.thread]
			if a.kill {
				s.Kill(th)
				logf("a%d kill t%d", i, a.thread)
				return
			}
			th.Enqueue(a.cost, func() {
				rd := threads[a.reader]
				logf("a%d done: t%d cpu=%v pending=%v queue=%d state=%v util=%.9f",
					i, a.reader, rd.CPUTime(), rd.PendingWork(), rd.QueueLen(), rd.State(), s.Utilization())
				if a.wake >= 0 {
					threads[a.wake].Enqueue(a.wakeCost, nil)
				}
			})
			if a.ioDelay >= 0 {
				complete := th.EnqueueIOBarrier()
				clock.Schedule(a.ioDelay, complete)
				th.Enqueue(a.afterCost, func() { logf("a%d after-io done", i) })
			}
		})
	}
	for _, d := range m.deadlines {
		clock.RunUntil(d)
		out.log = append(out.log, snapshot(s, threads))
	}
	tr.Finish(clock.Now())
	out.trace = traceDump(tr, threads)
	out.stepped, out.skipped = s.Ticks()
	return out
}

// snapshot renders every counter a caller can read between runs.
func snapshot(s *Scheduler, threads []*Thread) string {
	var b strings.Builder
	fmt.Fprintf(&b, "util=%.9f preempts=%d", s.Utilization(), s.Preemptions())
	for i, th := range threads {
		fmt.Fprintf(&b, " t%d{%v %v %v %d}", i, th.State(), th.CPUTime(), th.PendingWork(), th.QueueLen())
	}
	return b.String()
}

// traceDump renders the tracer's full record: every state interval,
// every preemption, and per-thread migrations.
func traceDump(tr *trace.Tracer, threads []*Thread) string {
	var b strings.Builder
	for _, iv := range tr.Intervals() {
		fmt.Fprintf(&b, "%d %v %v-%v\n", iv.Key.TID, iv.State, iv.Start, iv.End)
	}
	for _, p := range tr.Preemptions() {
		fmt.Fprintf(&b, "preempt %d by %d at %v ran=%v waited=%v\n",
			p.Victim.TID, p.Preemptor.TID, p.At, p.PreemptorRan, p.VictimWaited)
	}
	for _, th := range threads {
		fmt.Fprintf(&b, "migr %d %d\n", th.Key().TID, tr.Migrations(th.Key().TID))
	}
	return b.String()
}

// diffRuns reports the first difference between a bare and a pinned run.
func diffRuns(t *testing.T, name string, bare, pinned mixRun) {
	t.Helper()
	if pinned.skipped != 0 {
		t.Fatalf("%s: pinned run skipped %d ticks; the horizon pin is broken", name, pinned.skipped)
	}
	if got, want := bare.stepped+bare.skipped, pinned.stepped; got != want {
		t.Errorf("%s: bare run retired %d ticks (%d stepped + %d skipped), pinned %d",
			name, got, bare.stepped, bare.skipped, want)
	}
	for i := 0; i < len(bare.log) || i < len(pinned.log); i++ {
		var b, p string
		if i < len(bare.log) {
			b = bare.log[i]
		}
		if i < len(pinned.log) {
			p = pinned.log[i]
		}
		if b != p {
			t.Fatalf("%s: log line %d differs\n  bare:   %s\n  pinned: %s", name, i, b, p)
		}
	}
	if bare.trace != pinned.trace {
		t.Fatalf("%s: tracer records differ\n--- bare ---\n%s--- pinned ---\n%s", name, bare.trace, pinned.trace)
	}
}

// TestFastForwardEquivalence holds random mixes to the tick-by-tick
// reference, and checks that the battery exercised real skipping.
func TestFastForwardEquivalence(t *testing.T) {
	mixes := 400
	if testing.Short() {
		mixes = 60
	}
	var skipped, stepped int64
	for seed := 0; seed < mixes; seed++ {
		m := genMix(rand.New(rand.NewSource(int64(seed))))
		bare, pinned := runMix(m, false), runMix(m, true)
		diffRuns(t, fmt.Sprintf("mix %d", seed), bare, pinned)
		skipped += bare.skipped
		stepped += bare.stepped
	}
	t.Logf("%d mixes: bare runs stepped %d ticks and skipped %d", mixes, stepped, skipped)
	if skipped < stepped {
		t.Errorf("bare runs skipped %d ticks and stepped %d: the battery barely exercises fast-forward", skipped, stepped)
	}
}

// twoCores is the fixture of the named regression cases: a fair thread
// on each of two cores of different speed.
func twoCores() (*simclock.Clock, *Scheduler, *Thread, *Thread) {
	clock := simclock.New(1)
	s := New(clock, Config{CoreSpeeds: []float64{1, 2}, Tracer: trace.New(0)})
	a := s.Spawn("a", "app", ClassFair, 0)
	b := s.Spawn("b", "app", ClassFair, 0)
	a.SetPreferredCore(0)
	b.SetPreferredCore(1)
	return clock, s, a, b
}

// TestFastForwardCrossCoreRead: a job on core 0 completes at the end of
// a skipped stretch and its callback reads core 1's thread. The retire
// loop visits core 0 first, so core 1 must show every skipped tick but
// not yet the tick that just ended; a fast-forward that retired each
// core's k ticks in one go would show all or none of them.
func TestFastForwardCrossCoreRead(t *testing.T) {
	clock, s, a, b := twoCores()
	var seen time.Duration = -1
	a.Enqueue(10*time.Millisecond, func() { seen = b.CPUTime() })
	b.Enqueue(time.Second, nil)
	clock.RunUntil(50 * time.Millisecond)
	if want := 9 * 2 * time.Millisecond; seen != want {
		t.Errorf("callback at 10ms read core 1's CPUTime %v, want %v (9 ticks at 2x)", seen, want)
	}
	if _, skipped := s.Ticks(); skipped == 0 {
		t.Error("no tick was skipped; the case no longer exercises fast-forward")
	}
}

// TestFastForwardStepBeforeCallbackEvents: a callback queues an event
// for the very next tick boundary. The step for that boundary was
// queued before the callback ran, so it fires first and the event sees
// the boundary's tick retired. A step queued at the end of step would
// sort after the callback's event.
func TestFastForwardStepBeforeCallbackEvents(t *testing.T) {
	clock, s, a, b := twoCores()
	var seen time.Duration = -1
	a.Enqueue(10*time.Millisecond, func() {
		clock.Schedule(DefaultTick, func() { seen = b.CPUTime() })
	})
	b.Enqueue(time.Second, nil)
	clock.RunUntil(50 * time.Millisecond)
	if want := 11 * 2 * time.Millisecond; seen != want {
		t.Errorf("event at 11ms read core 1's CPUTime %v, want %v (11 ticks at 2x)", seen, want)
	}
	if _, skipped := s.Ticks(); skipped == 0 {
		t.Error("no tick was skipped; the case no longer exercises fast-forward")
	}
}

// TestFastForwardCountersAtDeadline: with one long job and no other
// event, every tick up to a deadline is skippable, yet the counters
// read right after RunUntil must include every boundary at or before
// the deadline — also when a callback stopped the clock early and the
// caller schedules an event before resuming.
func TestFastForwardCountersAtDeadline(t *testing.T) {
	clock, s, a, b := twoCores()
	a.Enqueue(time.Second, nil)
	clock.RunUntil(37*time.Millisecond + 400*time.Microsecond)
	if got, want := a.CPUTime(), 37*time.Millisecond; got != want {
		t.Errorf("CPUTime after RunUntil(37.4ms) = %v, want %v", got, want)
	}
	if got, want := s.Utilization(), 0.5; got != want {
		t.Errorf("Utilization after RunUntil(37.4ms) = %v, want %v", got, want)
	}
	if stepped, skipped := s.Ticks(); stepped+skipped != 38 || skipped == 0 {
		t.Errorf("Ticks = (%d, %d), want 38 in total with some skipped", stepped, skipped)
	}

	// A callback stops a deadline-free Run at 50ms; the caller then
	// queues an event before resuming. Had the 50ms step postponed
	// itself toward a's completion at 1s, the event would read stale
	// counters.
	// b starts at the 38ms step on the 2x core: 24ms of work is 12 ticks.
	b.Enqueue(24*time.Millisecond, func() { clock.Stop() })
	clock.Run()
	if got := clock.Now(); got != 50*time.Millisecond {
		t.Fatalf("clock stopped at %v, want 50ms", got)
	}
	cpuA := a.CPUTime()
	var seen time.Duration = -1
	clock.Schedule(3*time.Millisecond+time.Microsecond, func() { seen = a.CPUTime() })
	clock.RunUntil(60 * time.Millisecond)
	if want := cpuA + 3*time.Millisecond; seen != want {
		t.Errorf("event 3ms after a Stop read CPUTime %v, want %v", seen, want)
	}
}

// TestFastForwardRunWithoutDeadline: under Run, with no other event
// queued, the horizon is unbounded and one core's job would complete
// past the last representable instant. The postponement must still land
// on the first completion, the last tick boundary before
// math.MaxInt64, without overflowing.
func TestFastForwardRunWithoutDeadline(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*simclock.Clock)
	}{
		{"Run", func(c *simclock.Clock) { c.Run() }},
		{"RunUntil(MaxInt64)", func(c *simclock.Clock) { c.RunUntil(math.MaxInt64) }},
	} {
		name, run := tc.name, tc.run
		clock := simclock.New(1)
		s := New(clock, Config{CoreSpeeds: []float64{0.5, 1}, Tracer: trace.New(0)})
		slow := s.Spawn("slow", "app", ClassFair, 0)
		fast := s.Spawn("fast", "app", ClassFair, 0)
		slow.SetPreferredCore(0)
		fast.SetPreferredCore(1)
		last := (math.MaxInt64 - 1) / DefaultTick
		slow.Enqueue(math.MaxInt64, nil)
		var doneAt time.Duration = -1
		fast.Enqueue(last*DefaultTick, func() {
			doneAt = clock.Now()
			s.Stop()
		})
		run(clock)
		if want := last * DefaultTick; doneAt != want {
			t.Errorf("%s: fast job done at %v, want %v", name, doneAt, want)
		}
		if got, want := slow.CPUTime(), last*DefaultTick/2; got != want {
			t.Errorf("%s: slow CPUTime = %v, want %v", name, got, want)
		}
		if stepped, skipped := s.Ticks(); stepped != 2 || skipped != int64(last)-1 {
			t.Errorf("%s: Ticks = (%d, %d), want (2, %d)", name, stepped, skipped, int64(last)-1)
		}
	}
}

// TestFastForwardStopKeepsLastStep: once a callback stops the
// scheduler, the step it queued for the next boundary is a no-op, but
// Run still dispatches it and the clock ends at its time. Postponing it
// would move where Run leaves the clock.
func TestFastForwardStopKeepsLastStep(t *testing.T) {
	clock, _, a, b := twoCores()
	a.Enqueue(time.Second, nil)
	b.Enqueue(20*time.Millisecond, func() { a.sched.Stop() })
	clock.Run()
	if got, want := clock.Now(), 11*time.Millisecond; got != want {
		t.Errorf("Run ended at %v, want %v (the no-op step after the stop at 10ms)", got, want)
	}
}
