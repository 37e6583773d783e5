package simclock

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrder(t *testing.T) {
	c := New(1)
	var got []int
	c.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	c.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	c.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	c.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if c.Now() != 30*time.Millisecond {
		t.Errorf("Now = %v, want 30ms", c.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	c := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		c.Schedule(5*time.Millisecond, func() { got = append(got, i) })
	}
	c.Run()
	if !sort.IntsAreSorted(got) {
		t.Errorf("same-instant events fired out of scheduling order: %v", got)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	c := New(1)
	fired := false
	c.Schedule(-time.Second, func() { fired = true })
	c.Run()
	if !fired {
		t.Error("negative-delay event did not fire")
	}
	if c.Now() != 0 {
		t.Errorf("Now = %v, want 0", c.Now())
	}
}

func TestCancel(t *testing.T) {
	c := New(1)
	fired := false
	e := c.Schedule(time.Millisecond, func() { fired = true })
	e.Cancel()
	c.Run()
	if fired {
		t.Error("canceled event fired")
	}
	if !e.Canceled() {
		t.Error("Canceled() = false after Cancel")
	}
}

func TestEvery(t *testing.T) {
	c := New(1)
	n := 0
	var e *Event
	e = c.Every(10*time.Millisecond, func() {
		n++
		if n == 5 {
			e.Cancel()
		}
	})
	c.RunUntil(time.Second)
	if n != 5 {
		t.Errorf("repeating event fired %d times, want 5", n)
	}
}

func TestEveryCadence(t *testing.T) {
	c := New(1)
	var times []time.Duration
	c.Every(250*time.Millisecond, func() { times = append(times, c.Now()) })
	c.RunUntil(time.Second)
	want := []time.Duration{250 * time.Millisecond, 500 * time.Millisecond, 750 * time.Millisecond, time.Second}
	if len(times) != len(want) {
		t.Fatalf("fired at %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("fired at %v, want %v", times, want)
		}
	}
}

func TestRunUntilAdvancesToDeadline(t *testing.T) {
	c := New(1)
	c.Schedule(10*time.Second, func() {})
	c.RunUntil(3 * time.Second)
	if c.Now() != 3*time.Second {
		t.Errorf("Now = %v, want 3s", c.Now())
	}
	if c.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", c.Pending())
	}
	// The remaining event still fires later.
	fired := false
	c.Schedule(time.Second, func() { fired = true })
	c.RunUntil(20 * time.Second)
	if !fired {
		t.Error("event scheduled after partial run did not fire")
	}
}

func TestStop(t *testing.T) {
	c := New(1)
	n := 0
	c.Schedule(time.Millisecond, func() { n++; c.Stop() })
	c.Schedule(2*time.Millisecond, func() { n++ })
	c.Run()
	if n != 1 {
		t.Errorf("processed %d events after Stop, want 1", n)
	}
}

func TestAtClampsPast(t *testing.T) {
	c := New(1)
	c.Schedule(time.Second, func() {
		c.At(0, func() {
			if c.Now() != time.Second {
				t.Errorf("past event ran at %v, want clamped to 1s", c.Now())
			}
		})
	})
	c.Run()
}

func TestSchedulingInsideCallback(t *testing.T) {
	c := New(1)
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			c.Schedule(time.Millisecond, rec)
		}
	}
	c.Schedule(time.Millisecond, rec)
	c.Run()
	if depth != 100 {
		t.Errorf("depth = %d, want 100", depth)
	}
	if c.Now() != 100*time.Millisecond {
		t.Errorf("Now = %v, want 100ms", c.Now())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		c := New(42)
		var out []time.Duration
		for i := 0; i < 50; i++ {
			d := time.Duration(c.Rand().Intn(1000)) * time.Millisecond
			c.Schedule(d, func() { out = append(out, c.Now()) })
		}
		c.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different lengths across identical seeded runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: events always fire in non-decreasing time order regardless of
// the order they are scheduled.
func TestMonotoneDispatchProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		c := New(7)
		var fired []time.Duration
		for _, d := range delays {
			c.Schedule(time.Duration(d)*time.Millisecond, func() {
				fired = append(fired, c.Now())
			})
		}
		c.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEveryPanicsOnZeroPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Every(0) did not panic")
		}
	}()
	New(1).Every(0, func() {})
}

func TestRunPanicsWithRepeatingEvent(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Run with repeating event did not panic")
		}
	}()
	c := New(1)
	c.Every(time.Second, func() {})
	c.Run()
}

// TestCancelRemovesImmediately pins the Cancel contract the kernel
// optimisation introduced: a canceled event leaves the queue at Cancel
// time, it does not age through the heap as a tombstone. Before the
// change, a canceled long-horizon Every (the player's per-segment
// timeout pattern) sat in the queue until its far-future fire time,
// growing Pending() without bound under schedule/cancel churn.
func TestCancelRemovesImmediately(t *testing.T) {
	c := New(1)
	n := 0
	ev := c.Every(time.Millisecond, func() { n++ })
	c.RunUntil(10 * time.Millisecond)
	if n != 10 {
		t.Fatalf("fired %d times, want 10", n)
	}
	ev.Cancel()
	if p := c.Pending(); p != 0 {
		t.Fatalf("canceled Every still queued: Pending() = %d", p)
	}

	// Schedule/cancel churn of far-future one-shots: the queue must not
	// accumulate tombstones.
	fn := func() { t.Error("canceled event fired") }
	for i := 0; i < 10000; i++ {
		c.Schedule(time.Hour, fn).Cancel()
	}
	if p := c.Pending(); p != 0 {
		t.Fatalf("after churn: Pending() = %d, want 0", p)
	}

	c.RunUntil(time.Hour)
	if n != 10 {
		t.Fatalf("canceled Every fired after Cancel: n = %d", n)
	}
}

// TestCancelMidQueuePreservesOrder cancels interior events and checks
// the survivors still dispatch in exact (time, seq) order — the heap
// removal must restore the invariant wherever the hole opens.
func TestCancelMidQueuePreservesOrder(t *testing.T) {
	c := New(1)
	var fired []int
	events := make([]*Event, 100)
	for i := 0; i < 100; i++ {
		i := i
		// 37 is coprime with 100: times scatter, exercising removal at
		// varied heap positions.
		at := time.Duration((i*37)%100) * time.Millisecond
		events[i] = c.At(at, func() { fired = append(fired, i) })
	}
	for i := 0; i < 100; i += 3 {
		events[i].Cancel()
	}
	c.Run()
	want := 0
	for _, i := range fired {
		if i%3 == 0 {
			t.Fatalf("canceled event %d fired", i)
		}
		at := (i * 37) % 100
		if at < want {
			t.Fatalf("out-of-order dispatch: event %d at %dms after %dms", i, at, want)
		}
		want = at
	}
	if len(fired) != 100-34 {
		t.Fatalf("fired %d events, want %d", len(fired), 100-34)
	}
}

// TestCancelInsideOwnPeriodicHandler re-checks the re-arm-then-run
// contract under in-place re-arming: the handler sees its event queued
// (it was re-armed first) and Cancel must remove that re-armed entry.
func TestCancelInsideOwnPeriodicHandler(t *testing.T) {
	c := New(1)
	n := 0
	var ev *Event
	ev = c.Every(time.Millisecond, func() {
		n++
		if n == 3 {
			ev.Cancel()
		}
	})
	c.RunUntil(time.Second)
	if n != 3 {
		t.Fatalf("fired %d times, want 3", n)
	}
	if p := c.Pending(); p != 0 {
		t.Fatalf("Pending() = %d after self-cancel, want 0", p)
	}
}

// TestTickFreeDigestIgnoresTicks runs the same non-tick events twice,
// once with a tick every millisecond and once with a tick every 5 ms:
// the full digest must tell the runs apart, the tick-free digest must
// not, and a change to a non-tick event must change both.
func TestTickFreeDigestIgnoresTicks(t *testing.T) {
	run := func(tickEvery time.Duration, lastAt time.Duration) (full, tickFree uint64) {
		c := New(1)
		c.EnableDigest()
		var tick func()
		tick = func() { c.ScheduleTick(tickEvery, tick) }
		c.ScheduleTick(0, tick)
		c.Every(3*time.Millisecond, func() {})
		c.Schedule(7*time.Millisecond, func() { c.Schedule(2*time.Millisecond, func() {}) })
		c.Schedule(lastAt, func() {})
		c.RunUntil(40 * time.Millisecond)
		return c.Digest(), c.TickFreeDigest()
	}
	full1, free1 := run(time.Millisecond, 20*time.Millisecond)
	full5, free5 := run(5*time.Millisecond, 20*time.Millisecond)
	if full1 == full5 {
		t.Error("full digest did not see the tick cadence change")
	}
	if free1 != free5 {
		t.Errorf("tick-free digest moved with the tick cadence: %016x vs %016x", free1, free5)
	}
	fullMoved, freeMoved := run(time.Millisecond, 21*time.Millisecond)
	if fullMoved == full1 || freeMoved == free1 {
		t.Error("moving a non-tick event left a digest unchanged")
	}
	if New(1).TickFreeDigest() != 0 {
		t.Error("tick-free digest nonzero while disabled")
	}
}

// TestHorizon checks each bound Horizon reports from inside a callback:
// the earliest other event (root or, when self is the root, a child),
// one past the RunUntil deadline, math.MaxInt64 under Run with nothing
// else queued, and the current time once Stop was called.
func TestHorizon(t *testing.T) {
	c := New(1)
	var self *Event
	var got []time.Duration
	probe := func() { got = append(got, c.Horizon(self)) }
	self = c.Schedule(2*time.Millisecond, probe)
	nine := c.Schedule(9*time.Millisecond, func() {})
	c.Schedule(7*time.Millisecond, func() {})
	// For the event at 9ms, the earliest other event is the root at 2ms.
	c.Schedule(time.Millisecond, func() { got = append(got, c.Horizon(nine)) })
	c.RunUntil(100 * time.Millisecond)
	if want := []time.Duration{2 * time.Millisecond, 7 * time.Millisecond}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Horizon inside RunUntil = %v, want %v", got, want)
	}

	got = nil
	self = c.Schedule(time.Millisecond, probe)
	c.RunUntil(c.Now() + 5*time.Millisecond)
	if want := c.Now() + 1; len(got) != 1 || got[0] != want {
		t.Errorf("Horizon with only the deadline ahead = %v, want [%v]", got, want)
	}

	got = nil
	self = c.Schedule(time.Millisecond, probe)
	c.Run()
	if len(got) != 1 || got[0] != math.MaxInt64 {
		t.Errorf("Horizon under Run with nothing else queued = %v, want [MaxInt64]", got)
	}

	got = nil
	self = c.Schedule(time.Millisecond, func() { c.Stop(); probe() })
	c.Schedule(time.Hour, func() {})
	c.RunUntil(2 * time.Hour)
	if want := self.When(); len(got) != 1 || got[0] != want {
		t.Errorf("Horizon after Stop = %v, want [%v]", got, want)
	}
}

// TestPostpone moves a tick-like event across empty instants: it keeps
// firing before every other event, the digest sees its original
// sequence number, and out-of-bounds moves panic.
func TestPostpone(t *testing.T) {
	c := New(1)
	c.EnableDigest()
	var order []string
	var ev *Event
	ev = c.Schedule(time.Millisecond, func() { order = append(order, fmt.Sprint("step@", c.Now())) })
	c.Schedule(10*time.Millisecond, func() { order = append(order, "other") })
	c.Schedule(0, func() { c.Postpone(ev, 9*time.Millisecond) })
	c.RunUntil(20 * time.Millisecond)
	if want := "[step@9ms other]"; fmt.Sprint(order) != want {
		t.Errorf("order = %v, want %v", order, want)
	}

	// The same dispatches with the event scheduled at 9ms outright hash
	// identically: Postpone kept the sequence number.
	ref := New(1)
	ref.EnableDigest()
	ref.Schedule(9*time.Millisecond, func() {})
	ref.Schedule(10*time.Millisecond, func() {})
	ref.Schedule(0, func() {})
	ref.RunUntil(20 * time.Millisecond)
	if c.Digest() != ref.Digest() {
		t.Errorf("digest %016x after Postpone, %016x scheduled outright", c.Digest(), ref.Digest())
	}

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Postpone did not panic", name)
			}
		}()
		f()
	}
	c = New(1)
	ev = c.Schedule(2*time.Millisecond, func() {})
	c.Schedule(5*time.Millisecond, func() {})
	mustPanic("to the next event", func() { c.Postpone(ev, 5*time.Millisecond) })
	mustPanic("earlier", func() { c.Postpone(ev, time.Millisecond) })
	tick := c.Every(time.Millisecond, func() {})
	mustPanic("periodic", func() { c.Postpone(tick, time.Millisecond) })
	tick.Cancel()
	done := c.Schedule(0, func() {})
	done.Cancel()
	mustPanic("not queued", func() { c.Postpone(done, time.Millisecond) })
	c.Postpone(ev, 4*time.Millisecond)
	if ev.When() != 4*time.Millisecond {
		t.Errorf("When after Postpone = %v, want 4ms", ev.When())
	}
}

// TestRequeueTick re-queues a fired tick from its own callback: the one
// event keeps firing on the tick cadence, its handle reports each new
// time, and every misuse panics.
func TestRequeueTick(t *testing.T) {
	c := New(1)
	var fires []time.Duration
	var tick *Event
	tick = c.ScheduleTick(0, func() {
		fires = append(fires, c.Now())
		c.RequeueTick(tick, 2*time.Millisecond)
	})
	c.RunUntil(7 * time.Millisecond)
	if want := "[0s 2ms 4ms 6ms]"; fmt.Sprint(fires) != want {
		t.Errorf("fires = %v, want %v", fires, want)
	}
	if tick.When() != 8*time.Millisecond || c.Pending() != 1 {
		t.Errorf("When = %v, Pending = %d; want 8ms, 1", tick.When(), c.Pending())
	}

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: RequeueTick did not panic", name)
			}
		}()
		f()
	}
	c = New(1)
	queued := c.ScheduleTick(time.Millisecond, func() {})
	mustPanic("queued", func() { c.RequeueTick(queued, time.Millisecond) })
	periodic := c.Every(time.Millisecond, func() {})
	mustPanic("periodic", func() { c.RequeueTick(periodic, time.Millisecond) })
	periodic.Cancel()
	mustPanic("periodic, canceled", func() { c.RequeueTick(periodic, time.Millisecond) })
	oneShot := c.Schedule(0, func() {})
	canceledTick := c.ScheduleTick(0, func() {})
	canceledTick.Cancel()
	c.RunUntil(5 * time.Millisecond)
	mustPanic("non-tick", func() { c.RequeueTick(oneShot, time.Millisecond) })
	mustPanic("canceled tick", func() { c.RequeueTick(canceledTick, time.Millisecond) })
	mustPanic("other clock", func() { New(1).RequeueTick(queued, time.Millisecond) })
	if c.Pending() != 0 {
		t.Errorf("Pending = %d after panicking calls, want 0", c.Pending())
	}
}
