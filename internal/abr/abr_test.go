package abr

import (
	"testing"
	"time"

	"coalqoe/internal/dash"
	"coalqoe/internal/proc"
	"coalqoe/internal/units"
)

func ladder() []dash.Rung {
	l := dash.Ladder(24, 30, 48, 60)
	// sort ascending by bitrate as the controller does
	for i := 0; i < len(l); i++ {
		for j := i + 1; j < len(l); j++ {
			if l[j].Bitrate < l[i].Bitrate {
				l[i], l[j] = l[j], l[i]
			}
		}
	}
	return l
}

func ctxWith(mod func(*Context)) Context {
	l := ladder()
	c := Context{
		Now:        time.Minute,
		Current:    l[len(l)-1],
		Ladder:     l,
		Buffer:     50 * time.Second,
		Throughput: 100 * units.Mbps,
		Signal:     proc.Normal,
		SignalAge:  time.Hour,
	}
	if mod != nil {
		mod(&c)
	}
	return c
}

func TestFixedNeverSwitches(t *testing.T) {
	c := ctxWith(func(c *Context) { c.RecentDropRate = 90; c.Signal = proc.Critical; c.SignalAge = 0 })
	if got := (Fixed{}).Decide(c); got != c.Current {
		t.Errorf("Fixed switched to %v", got)
	}
}

func TestRateBasedPicksUnderThroughput(t *testing.T) {
	c := ctxWith(func(c *Context) { c.Throughput = 10 * units.Mbps })
	got := RateBased{}.Decide(c)
	if got.Bitrate > 8*units.Mbps {
		t.Errorf("picked %v over 80%% of 10Mbps", got)
	}
	// Zero throughput: hold.
	c2 := ctxWith(func(c *Context) { c.Throughput = 0 })
	if got := (RateBased{}).Decide(c2); got != c2.Current {
		t.Error("rate-based should hold with no throughput sample")
	}
}

func TestBufferBasedEndpoints(t *testing.T) {
	low := ctxWith(func(c *Context) { c.Buffer = 2 * time.Second })
	if got := (BufferBased{}).Decide(low); got != low.Ladder[0] {
		t.Errorf("low buffer picked %v, want lowest", got)
	}
	high := ctxWith(func(c *Context) { c.Buffer = 55 * time.Second })
	if got := (BufferBased{}).Decide(high); got != high.Ladder[len(high.Ladder)-1] {
		t.Errorf("full buffer picked %v, want highest", got)
	}
}

func TestBufferBasedMonotone(t *testing.T) {
	prev := units.BitsPerSecond(0)
	for b := 5; b <= 55; b += 5 {
		c := ctxWith(func(c *Context) { c.Buffer = time.Duration(b) * time.Second })
		got := BufferBased{}.Decide(c)
		if got.Bitrate < prev {
			t.Errorf("bitrate decreased as buffer grew at %ds", b)
		}
		prev = got.Bitrate
	}
}

func TestBOLABufferSensitivity(t *testing.T) {
	low := ctxWith(func(c *Context) { c.Buffer = 3 * time.Second })
	high := ctxWith(func(c *Context) { c.Buffer = 58 * time.Second })
	bLow := BOLA{}.Decide(low)
	bHigh := BOLA{}.Decide(high)
	if bLow.Bitrate >= bHigh.Bitrate {
		t.Errorf("BOLA picked %v at low buffer vs %v at high", bLow, bHigh)
	}
	if bHigh != high.Ladder[len(high.Ladder)-1] {
		t.Errorf("BOLA at full buffer picked %v, want top rung", bHigh)
	}
	if bLow != low.Ladder[0] {
		t.Errorf("BOLA at empty buffer picked %v, want bottom rung", bLow)
	}
}

func TestDegradationPathFPSFirst(t *testing.T) {
	l := ladder()
	want, _ := dash.FindRung(l, dash.R1080p, 60)
	path := degradationPath(l, want)
	if path[0] != want {
		t.Fatalf("path[0] = %v, want %v", path[0], want)
	}
	// First steps keep 1080p while lowering fps: 60 -> 48 -> 30 -> 24.
	wantFPS := []int{60, 48, 30, 24}
	for i, f := range wantFPS {
		if path[i].Resolution != dash.R1080p || path[i].FPS != f {
			t.Errorf("path[%d] = %v, want 1080p%d", i, path[i], f)
		}
	}
	// After fps is exhausted, resolution drops at 24 fps.
	if path[4].Resolution >= dash.R1080p || path[4].FPS != 24 {
		t.Errorf("path[4] = %v, want sub-1080p at 24fps", path[4])
	}
}

func TestMemoryAwareStepsDownOnSignal(t *testing.T) {
	a := &MemoryAware{Inner: Fixed{}}
	c := ctxWith(func(c *Context) { c.Signal = proc.Moderate; c.SignalAge = time.Second })
	got := a.Decide(c)
	if got == c.Current {
		t.Fatal("no step down on Moderate signal")
	}
	if got.Resolution != c.Current.Resolution || got.FPS >= c.Current.FPS {
		t.Errorf("first step should lower fps at same resolution, got %v", got)
	}
}

func TestMemoryAwareStepsDownOnDrops(t *testing.T) {
	a := &MemoryAware{Inner: Fixed{}}
	c := ctxWith(func(c *Context) { c.RecentDropRate = 40 })
	if got := a.Decide(c); got == c.Current {
		t.Error("no step down on heavy drops")
	}
}

func TestMemoryAwareEscalatesAndRecovers(t *testing.T) {
	a := &MemoryAware{Inner: Fixed{}}
	// Three consecutive troubled decisions escalate.
	var last dash.Rung
	for i := 0; i < 3; i++ {
		c := ctxWith(func(c *Context) {
			c.Now = time.Duration(i) * 2 * time.Second
			c.Signal = proc.Critical
			c.SignalAge = 0
		})
		last = a.Decide(c)
	}
	if a.steps != 3 {
		t.Fatalf("steps = %d after 3 troubled decisions, want 3", a.steps)
	}
	if last.FPS != 24 {
		t.Errorf("after 3 steps rung = %v, want 1080p24", last)
	}
	// The hold-down is strict: exactly awareHoldDown of quiet after the
	// last trouble (at 4 s) is not yet enough to step back up...
	quiet := 4*time.Second + awareHoldDown
	a.Decide(ctxWith(func(c *Context) { c.Now = quiet }))
	if a.steps != 3 {
		t.Errorf("steps = %d after exactly the hold-down, want 3", a.steps)
	}
	// ...just past it is, by one step.
	a.Decide(ctxWith(func(c *Context) { c.Now = quiet + 1 }))
	if a.steps != 2 {
		t.Errorf("steps = %d just past the hold-down, want 2", a.steps)
	}
}

func TestMemoryAwareNormalPassesThrough(t *testing.T) {
	a := &MemoryAware{Inner: Fixed{}}
	c := ctxWith(nil)
	if got := a.Decide(c); got != c.Current {
		t.Errorf("unpressured decision changed rung to %v", got)
	}
}
