package simclock

import (
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// Property-based tests: testing/quick drives the clock with randomly
// generated schedules and checks the kernel's ordering invariants
// against a straightforward reference model.

// TestPropertyDispatchOrder schedules a random batch of one-shot events
// (with a random subset canceled up front) and checks that the
// survivors fire exactly in (time, scheduling order) — the contract
// every other subsystem builds its determinism on.
func TestPropertyDispatchOrder(t *testing.T) {
	prop := func(ops []uint16) bool {
		c := New(1)
		type ev struct {
			id int
			at time.Duration
		}
		var want []ev
		var got []int
		for i, op := range ops {
			id := i
			delay := time.Duration(op>>1) * time.Millisecond
			cancel := op&1 == 1
			e := c.Schedule(delay, func() { got = append(got, id) })
			if cancel {
				e.Cancel()
			} else {
				want = append(want, ev{id: id, at: delay})
			}
		}
		// Reference order: by time, ties broken by scheduling order —
		// which is exactly the order of `want`, stably sorted by time.
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		c.Run()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i].id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEveryNoDrift checks that a periodic event fires at exact
// period multiples for any period and horizon: in-place re-arming must
// not accumulate error or skip ticks.
func TestPropertyEveryNoDrift(t *testing.T) {
	prop := func(periodMS uint8, horizonMS uint16) bool {
		period := time.Duration(periodMS%100+1) * time.Millisecond
		horizon := time.Duration(horizonMS) * time.Millisecond
		c := New(1)
		fires := 0
		ok := true
		c.Every(period, func() {
			fires++
			if c.Now() != time.Duration(fires)*period {
				ok = false
			}
		})
		c.RunUntil(horizon)
		return ok && fires == int(horizon/period) && c.Now() == horizon
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyScheduleInsideHandler has every root event schedule a
// child from inside its own handler and checks that dispatch times stay
// monotone and nothing is lost — mid-dispatch heap growth must be safe.
func TestPropertyScheduleInsideHandler(t *testing.T) {
	prop := func(pairs []uint16) bool {
		c := New(1)
		fired := 0
		last := time.Duration(-1)
		ok := true
		note := func() {
			fired++
			if c.Now() < last {
				ok = false
			}
			last = c.Now()
		}
		for _, p := range pairs {
			rootDelay := time.Duration(p&0xff) * time.Millisecond
			childDelay := time.Duration(p>>8) * time.Millisecond
			c.Schedule(rootDelay, func() {
				note()
				c.Schedule(childDelay, note)
			})
		}
		c.Run()
		return ok && fired == 2*len(pairs) && c.Pending() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCancelIsExact cancels a random subset mid-flight — from a
// scheduled sweep event rather than up front — and checks that exactly
// the events that were still pending at cancel time are suppressed.
func TestPropertyCancelIsExact(t *testing.T) {
	prop := func(ops []uint16, sweepMS uint8) bool {
		c := New(1)
		sweep := time.Duration(sweepMS) * time.Millisecond
		type tracked struct {
			e      *Event
			fired  bool
			cancel bool
		}
		events := make([]*tracked, len(ops))
		for i, op := range ops {
			tr := &tracked{cancel: op&1 == 1}
			tr.e = c.Schedule(time.Duration(op>>1)*time.Millisecond, func() { tr.fired = true })
			events[i] = tr
		}
		victims := 0
		c.Schedule(sweep, func() {
			for _, tr := range events {
				if tr.cancel && !tr.fired {
					tr.e.Cancel()
					victims++
				}
			}
		})
		c.Run()
		for _, tr := range events {
			switch {
			case tr.fired && tr.cancel && tr.e.When() >= sweep:
				// An event at exactly the sweep instant may fire first
				// (the sweep was scheduled later, so it sorts after).
				if tr.e.When() > sweep {
					return false // canceled before its time, yet fired
				}
			case !tr.fired && (!tr.cancel || tr.e.When() < sweep):
				return false // live event (or one canceled too late) lost
			}
		}
		return c.Pending() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyRequeueTickMatchesScheduleTick drives two clocks with the
// same random script: a tick that re-arms itself every firing, plus
// one-shots it schedules, many of them at the tick's own instants and
// some scheduling further same-instant one-shots. One clock re-arms by
// RequeueTick on the one event, the other by a fresh ScheduleTick. Both
// digests and the callback order must match: reusing the event may not
// change a time, a sequence number or an ordinal.
func TestPropertyRequeueTickMatchesScheduleTick(t *testing.T) {
	run := func(ops []uint16, requeue bool) (full, tickFree uint64, log string) {
		c := New(1)
		c.EnableDigest()
		var out []byte
		note := func(b byte) { out = append(out, b) }
		next := 0
		var tick *Event
		var fn func()
		fn = func() {
			note('t')
			if next >= len(ops) {
				return
			}
			op := ops[next]
			next++
			period := time.Duration(op&3+1) * time.Millisecond
			rearm := func() {
				if requeue {
					c.RequeueTick(tick, period)
				} else {
					tick = c.ScheduleTick(period, fn)
				}
			}
			// Re-arm before or after the one-shots: the tick's sequence
			// number among same-instant events depends on it.
			if op&4 == 0 {
				rearm()
			}
			for i := 0; i < int(op>>3&3); i++ {
				// Delays of 0, one and two tick periods land on instants
				// the tick also fires at.
				d := time.Duration(op>>(5+2*i)&3) * time.Millisecond
				id := byte('a' + i)
				if op>>11&1 == 1 {
					c.Schedule(d, func() { note(id); c.Schedule(0, func() { note(id + 8) }) })
				} else {
					c.Schedule(d, func() { note(id) })
				}
			}
			if op&4 != 0 {
				rearm()
			}
		}
		tick = c.ScheduleTick(0, fn)
		c.RunUntil(time.Duration(4*len(ops)+8) * time.Millisecond)
		return c.Digest(), c.TickFreeDigest(), string(out)
	}
	prop := func(ops []uint16) bool {
		f1, n1, l1 := run(ops, true)
		f2, n2, l2 := run(ops, false)
		return f1 == f2 && n1 == n2 && l1 == l2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
