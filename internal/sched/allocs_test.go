package sched

import (
	"testing"
	"time"

	"coalqoe/internal/simclock"
	"coalqoe/internal/trace"
)

// TestContendedTicksDoNotAllocate pins the per-tick allocation count of
// the stepped path at zero. Two RT threads hold both cores and a fair
// thread waits behind them, each with an hour of work: the selection
// never changes, and with more runnable threads than cores no tick is
// skipped, so every tick runs the full step. The step re-queues its own
// tick event; a fresh event per tick would show up here as one slab
// chunk every few hundred ticks.
func TestContendedTicksDoNotAllocate(t *testing.T) {
	clock := simclock.New(1)
	s := New(clock, Config{CoreSpeeds: []float64{1, 1}, Tracer: trace.New(0)})
	for _, th := range []*Thread{
		s.Spawn("rt0", "app", ClassRT, 0),
		s.Spawn("rt1", "app", ClassRT, 0),
		s.Spawn("fair", "app", ClassFair, 0),
	} {
		th.Enqueue(time.Hour, nil)
	}
	// Warm up: the first ticks settle the selection and size the
	// scratch buffers.
	clock.RunUntil(10 * time.Millisecond)
	const ticks = 1000
	stepped0, _ := s.Ticks()
	allocs := testing.AllocsPerRun(5, func() {
		clock.RunUntil(clock.Now() + ticks*s.Tick())
	})
	stepped, skipped := s.Ticks()
	if skipped != 0 {
		t.Fatalf("%d ticks skipped; the fixture must step every tick", skipped)
	}
	// AllocsPerRun makes one warm-up call besides the five it averages.
	if want := int64(6 * ticks); stepped-stepped0 != want {
		t.Fatalf("stepped %d ticks, want %d", stepped-stepped0, want)
	}
	if allocs != 0 {
		t.Errorf("%v allocations per %d stepped ticks, want 0", allocs, ticks)
	}
}
