package sched

import (
	"testing"
	"time"

	"coalqoe/internal/simclock"
	"coalqoe/internal/trace"
)

func newSched(t *testing.T, speeds ...float64) (*simclock.Clock, *Scheduler, *trace.Tracer) {
	t.Helper()
	clock := simclock.New(1)
	tr := trace.New(0)
	s := New(clock, Config{CoreSpeeds: speeds, Tracer: tr})
	return clock, s, tr
}

func TestSingleJobCompletes(t *testing.T) {
	clock, s, tr := newSched(t, 1.0)
	th := s.Spawn("worker", "app", ClassFair, 0)
	done := time.Duration(-1)
	th.Enqueue(10*time.Millisecond, func() { done = clock.Now() })
	clock.RunUntil(time.Second)
	if done < 0 {
		t.Fatal("job never completed")
	}
	if done != 10*time.Millisecond {
		t.Errorf("completed at %v, want 10ms", done)
	}
	if th.CPUTime() != 10*time.Millisecond {
		t.Errorf("CPUTime = %v, want 10ms", th.CPUTime())
	}
	tr.Finish(clock.Now())
	if got := tr.TimeInState(trace.ByProcess("app"), trace.Running); got != 10*time.Millisecond {
		t.Errorf("Running = %v, want 10ms", got)
	}
}

func TestFasterCoreFinishesSooner(t *testing.T) {
	clock, s, _ := newSched(t, 2.0)
	th := s.Spawn("worker", "app", ClassFair, 0)
	var done time.Duration
	th.Enqueue(10*time.Millisecond, func() { done = clock.Now() })
	clock.RunUntil(time.Second)
	if done != 5*time.Millisecond {
		t.Errorf("completed at %v, want 5ms on a 2x core", done)
	}
}

func TestRTPreemptsFair(t *testing.T) {
	clock, s, tr := newSched(t, 1.0)
	fair := s.Spawn("video", "firefox", ClassFair, 0)
	rt := s.Spawn("mmcqd/0", "kernel", ClassRT, 0)

	fair.Enqueue(100*time.Millisecond, nil)
	// Wake the RT thread mid-run.
	clock.Schedule(20*time.Millisecond, func() { rt.Enqueue(5*time.Millisecond, nil) })
	clock.RunUntil(200 * time.Millisecond)
	tr.Finish(clock.Now())

	ps := tr.PreemptionsBy(trace.ByName("mmcqd"), trace.ByProcess("firefox"))
	if ps.Count != 1 {
		t.Fatalf("preemption count = %d, want 1", ps.Count)
	}
	if ps.PreemptorRanFor != 5*time.Millisecond {
		t.Errorf("PreemptorRanFor = %v, want 5ms", ps.PreemptorRanFor)
	}
	if ps.VictimsWaitedFor != 5*time.Millisecond {
		t.Errorf("VictimsWaitedFor = %v, want 5ms", ps.VictimsWaitedFor)
	}
	if got := tr.TimeInState(trace.ByProcess("firefox"), trace.RunnablePreempted); got != 5*time.Millisecond {
		t.Errorf("RunnablePreempted = %v, want 5ms", got)
	}
	// The fair job still completes, just 5ms late.
	if got := fair.PendingWork(); got != 0 {
		t.Errorf("fair thread still has %v pending", got)
	}
}

func TestFairSharing(t *testing.T) {
	clock, s, _ := newSched(t, 1.0)
	a := s.Spawn("a", "p1", ClassFair, 0)
	b := s.Spawn("b", "p2", ClassFair, 0)
	a.Enqueue(500*time.Millisecond, nil)
	b.Enqueue(500*time.Millisecond, nil)
	clock.RunUntil(100 * time.Millisecond)
	ra, rb := a.CPUTime(), b.CPUTime()
	if ra+rb != 100*time.Millisecond {
		t.Fatalf("total CPU = %v, want 100ms", ra+rb)
	}
	diff := ra - rb
	if diff < 0 {
		diff = -diff
	}
	if diff > 2*time.Millisecond {
		t.Errorf("unfair split: a=%v b=%v", ra, rb)
	}
}

func TestNiceWeighting(t *testing.T) {
	clock, s, _ := newSched(t, 1.0)
	hi := s.Spawn("hi", "p1", ClassFair, -5) // higher priority
	lo := s.Spawn("lo", "p2", ClassFair, 5)
	hi.Enqueue(time.Second, nil)
	lo.Enqueue(time.Second, nil)
	clock.RunUntil(300 * time.Millisecond)
	ratio := float64(hi.CPUTime()) / float64(lo.CPUTime())
	// Weight ratio is 1.25^10 ≈ 9.3; the share ratio should be near it.
	if ratio < 5 {
		t.Errorf("nice -5 vs +5 CPU ratio = %.2f, want >> 1", ratio)
	}
}

func TestIOBarrierBlocksInD(t *testing.T) {
	clock, s, tr := newSched(t, 1.0)
	th := s.Spawn("reader", "app", ClassFair, 0)
	th.Enqueue(5*time.Millisecond, nil)
	complete := th.EnqueueIOBarrier()
	var resumed time.Duration
	th.Enqueue(5*time.Millisecond, func() { resumed = clock.Now() })
	// I/O completes at t=50ms.
	clock.Schedule(50*time.Millisecond, complete)
	clock.RunUntil(200 * time.Millisecond)
	tr.Finish(clock.Now())

	if resumed < 55*time.Millisecond {
		t.Errorf("post-barrier job finished at %v, want >= 55ms", resumed)
	}
	d := tr.TimeInState(trace.ByProcess("app"), trace.UninterruptibleSleep)
	if d < 40*time.Millisecond {
		t.Errorf("D time = %v, want ~45ms", d)
	}
}

func TestIOBarrierCompleteIdempotent(t *testing.T) {
	clock, s, _ := newSched(t, 1.0)
	th := s.Spawn("reader", "app", ClassFair, 0)
	complete := th.EnqueueIOBarrier()
	n := 0
	th.Enqueue(time.Millisecond, func() { n++ })
	complete()
	complete()
	clock.RunUntil(100 * time.Millisecond)
	if n != 1 {
		t.Errorf("post-barrier job ran %d times, want 1", n)
	}
}

func TestKillDropsWork(t *testing.T) {
	clock, s, _ := newSched(t, 1.0)
	th := s.Spawn("victim", "app", ClassFair, 0)
	fired := false
	th.Enqueue(100*time.Millisecond, func() { fired = true })
	clock.Schedule(10*time.Millisecond, func() { s.Kill(th) })
	clock.RunUntil(500 * time.Millisecond)
	if fired {
		t.Error("job completed on a killed thread")
	}
	if !th.Dead() {
		t.Error("thread not dead")
	}
	// Enqueue after death is a no-op.
	th.Enqueue(time.Millisecond, func() { fired = true })
	clock.RunUntil(time.Second)
	if fired {
		t.Error("job ran on dead thread")
	}
}

func TestKillProcess(t *testing.T) {
	clock, s, _ := newSched(t, 2.0, 2.0)
	a := s.Spawn("a", "victimproc", ClassFair, 0)
	b := s.Spawn("b", "victimproc", ClassFair, 0)
	c := s.Spawn("c", "other", ClassFair, 0)
	a.Enqueue(time.Second, nil)
	b.Enqueue(time.Second, nil)
	c.Enqueue(time.Second, nil)
	var killed int
	clock.Schedule(5*time.Millisecond, func() { killed = s.KillProcess("victimproc") })
	clock.RunUntil(20 * time.Millisecond)
	if killed != 2 {
		t.Errorf("killed %d threads, want 2", killed)
	}
	if c.Dead() {
		t.Error("unrelated process killed")
	}
}

func TestRunnableWhenOversubscribed(t *testing.T) {
	clock, s, tr := newSched(t, 1.0)
	for i := 0; i < 4; i++ {
		th := s.Spawn("w", "app", ClassFair, 0)
		th.Enqueue(25*time.Millisecond, nil)
	}
	clock.RunUntil(100 * time.Millisecond)
	tr.Finish(clock.Now())
	run := tr.TimeInState(trace.ByProcess("app"), trace.Running)
	wait := tr.TimeInState(trace.ByProcess("app"), trace.Runnable) +
		tr.TimeInState(trace.ByProcess("app"), trace.RunnablePreempted)
	if run != 100*time.Millisecond {
		t.Errorf("Running = %v, want 100ms (1 core fully busy)", run)
	}
	if wait == 0 {
		t.Error("expected nonzero Runnable time with 4 threads on 1 core")
	}
}

func TestCoreAffinity(t *testing.T) {
	clock, s, tr := newSched(t, 1.0, 1.0)
	th := s.Spawn("sticky", "app", ClassFair, 0)
	th.Enqueue(50*time.Millisecond, nil)
	clock.RunUntil(100 * time.Millisecond)
	tr.Finish(clock.Now())
	if m := tr.Migrations(th.Key().TID); m != 0 {
		t.Errorf("uncontended thread migrated %d times", m)
	}
}

func TestUtilization(t *testing.T) {
	clock, s, _ := newSched(t, 1.0, 1.0)
	th := s.Spawn("w", "app", ClassFair, 0)
	th.Enqueue(50*time.Millisecond, nil)
	clock.RunUntil(100 * time.Millisecond)
	// One of two cores busy half the time => 25%.
	if u := s.Utilization(); u < 0.24 || u > 0.26 {
		t.Errorf("Utilization = %v, want ~0.25", u)
	}
}

func TestRTFIFOOrder(t *testing.T) {
	clock, s, _ := newSched(t, 1.0)
	r1 := s.Spawn("rt1", "kernel", ClassRT, 0)
	r2 := s.Spawn("rt2", "kernel", ClassRT, 0)
	var order []string
	clock.Schedule(time.Millisecond, func() {
		r1.Enqueue(5*time.Millisecond, func() { order = append(order, "rt1") })
	})
	clock.Schedule(2*time.Millisecond, func() {
		r2.Enqueue(5*time.Millisecond, func() { order = append(order, "rt2") })
	})
	clock.RunUntil(100 * time.Millisecond)
	if len(order) != 2 || order[0] != "rt1" || order[1] != "rt2" {
		t.Errorf("RT completion order = %v, want [rt1 rt2]", order)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		clock := simclock.New(9)
		tr := trace.New(0)
		s := New(clock, Config{CoreSpeeds: []float64{1, 1}, Tracer: tr})
		var out []time.Duration
		for i := 0; i < 6; i++ {
			th := s.Spawn("w", "app", ClassFair, 0)
			cost := time.Duration(5+clock.Rand().Intn(20)) * time.Millisecond
			th.Enqueue(cost, func() { out = append(out, clock.Now()) })
		}
		clock.RunUntil(time.Second)
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic completion count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestWokenThreadDoesNotStarveOthers(t *testing.T) {
	clock, s, _ := newSched(t, 1.0)
	busy := s.Spawn("busy", "p1", ClassFair, 0)
	busy.Enqueue(time.Second, nil)
	clock.RunUntil(500 * time.Millisecond)
	// A thread waking after 500ms must not monopolize the core on the
	// strength of its zero vruntime.
	late := s.Spawn("late", "p2", ClassFair, 0)
	late.Enqueue(400*time.Millisecond, nil)
	mark := busy.CPUTime()
	clock.RunUntil(700 * time.Millisecond)
	got := busy.CPUTime() - mark
	if got < 80*time.Millisecond {
		t.Errorf("existing thread got only %v of 200ms after a late waker joined", got)
	}
}

func TestSpawnPanicsWithoutCores(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic with zero cores")
		}
	}()
	New(simclock.New(1), Config{Tracer: trace.New(0)})
}

func TestPreferredCoreReducesMigrations(t *testing.T) {
	run := func(pin bool) int {
		clock := simclock.New(5)
		tr := trace.New(0)
		s := New(clock, Config{CoreSpeeds: []float64{1, 1, 1, 1}, Tracer: tr})
		roamer := s.Spawn("roamer", "kernel", ClassFair, 0)
		if pin {
			roamer.SetPreferredCore(3)
		}
		// Competing churn that would otherwise push the roamer around.
		for i := 0; i < 3; i++ {
			w := s.Spawn("w", "app", ClassFair, 0)
			clock.Every(7*time.Millisecond, func() { w.Enqueue(3*time.Millisecond, nil) })
		}
		// The roamer works in bursts, sleeping in between: each wake is
		// a fresh core assignment.
		clock.Every(5*time.Millisecond, func() { roamer.Enqueue(2*time.Millisecond, nil) })
		clock.RunUntil(2 * time.Second)
		tr.Finish(clock.Now())
		return tr.Migrations(roamer.Key().TID)
	}
	free := run(false)
	pinned := run(true)
	if pinned*4 > free {
		t.Errorf("pinning did not reduce migrations: free=%d pinned=%d", free, pinned)
	}
}

// TestFreeCoresFillFastestFirst: on the Nexus 6P's big.LITTLE speeds
// (little cores 0-3, big cores 4-7), two runnable threads take big
// cores 4 and 5 rather than little cores 0 and 1. Equal speeds keep
// index order.
func TestFreeCoresFillFastestFirst(t *testing.T) {
	for _, c := range []struct {
		speeds []float64
		want   [2]int
	}{
		{[]float64{1.55, 1.55, 1.55, 1.55, 4.0, 4.0, 4.0, 4.0}, [2]int{4, 5}},
		{[]float64{1, 1, 1, 1}, [2]int{0, 1}},
	} {
		clock, s, _ := newSched(t, c.speeds...)
		a := s.Spawn("a", "app", ClassFair, 0)
		b := s.Spawn("b", "app", ClassFair, 0)
		a.Enqueue(50*time.Millisecond, nil)
		b.Enqueue(50*time.Millisecond, nil)
		clock.RunUntil(5 * time.Millisecond)
		if got := [2]int{a.core, b.core}; got != c.want {
			t.Errorf("speeds %v: threads on cores %v, want %v", c.speeds, got, c.want)
		}
	}
}
