// Server-side chaos: the deterministic fault plans of internal/faults
// replayed on a real HTTP serving path. The simulator's Injector maps
// a plan's windows onto the virtual device (link outages, disk stalls,
// memory spikes); Chaos maps the same windows onto the server the
// load generator hammers, so the crash-recovery client machinery
// (dash.Client retries, player Config.Recover) is exercised against
// genuine 5xx bursts and latency storms instead of simulated ones.
//
// Kind mapping (documented per window kind, severities reused as-is):
//
//	NetOutage            -> 503 Service Unavailable for the window (a 5xx burst)
//	NetLoss(rate)        -> each request fails with probability rate as 502
//	IOStall(factor)      -> origin slowdown: misses pay (factor-1) x the
//	                        nominal origin service time extra (hits are unaffected,
//	                        exactly like a CDN in front of a sick origin)
//	MemSpike(bytes)      -> injected response latency: every request in the
//	                        window waits ~1ms per 32 MiB of spike, modeling
//	                        allocator stalls and reclaim on the serving host
//
// Determinism: the window schedule is faults.Spec.Windows — a pure
// function of (plan, seed, horizon) — and repeats every horizon, so a
// long-running server cycles the same storm script. Per-request loss
// decisions hash a request ordinal instead of drawing from a shared
// RNG: given the same arrival order, the same requests are dropped.
// Only the clock is real, and it is injected (wall-clock wiring lives
// in cmd/, per LINTING.md).
package cdn

import (
	"sort"
	"sync/atomic"
	"time"

	"coalqoe/internal/faults"
	"coalqoe/internal/telemetry"
)

// nominalOriginDelay is the modeled healthy origin service time that
// IOStall severities multiply.
const nominalOriginDelay = 2 * time.Millisecond

// spikeDelayUnit is the spike size that buys one millisecond of
// injected response latency during a MemSpike window.
const spikeDelayUnit = 32 << 20 // bytes per ms

// Effect is the chaos verdict for one request.
type Effect struct {
	// Status is nonzero when the request must be rejected with this
	// 5xx code before any serving work happens.
	Status int
	// OriginDelay is extra latency the origin (miss) path must pay;
	// cache hits skip it.
	OriginDelay time.Duration
}

// ChaosStats snapshots the gate's counters.
type ChaosStats struct {
	Rejected int64 // requests failed with an injected 5xx
	Delayed  int64 // requests that paid injected response latency
	Stalled  int64 // requests tagged with origin slowdown
}

// Record writes the counters into reg as the dash.chaos.* series.
func (s ChaosStats) Record(reg *telemetry.Registry) {
	reg.Counter("dash.chaos.rejected").Add(s.Rejected)
	reg.Counter("dash.chaos.delayed").Add(s.Delayed)
	reg.Counter("dash.chaos.stalled").Add(s.Stalled)
}

// Chaos evaluates fault windows against the wall clock for a live
// HTTP server. Safe for concurrent use: the schedule is immutable
// after construction and the mutable state is atomic.
type Chaos struct {
	horizon time.Duration
	start   time.Time
	now     func() time.Time
	sleep   func(time.Duration)
	seed    int64

	// Per-kind schedules, sorted by start. Windows of one kind never
	// overlap (faults.Spec.Windows generates them sequentially), so a
	// binary search fully resolves "active now".
	outages []faults.Window
	losses  []faults.Window
	stalls  []faults.Window
	spikes  []faults.Window

	reqs     atomic.Int64
	rejected atomic.Int64
	delayed  atomic.Int64
	stalled  atomic.Int64
}

// NewChaos materializes spec over one horizon and arms the gate. The
// now func anchors window positions to real time (the schedule starts
// at the first call's instant and repeats every horizon); sleep
// applies injected latency. Both are injected from the binary's main
// package (typically time.Now and time.Sleep).
func NewChaos(spec faults.Spec, seed int64, horizon time.Duration, now func() time.Time, sleep func(time.Duration)) *Chaos {
	if now == nil || sleep == nil {
		panic("cdn: NewChaos needs now and sleep funcs; pass time.Now/time.Sleep from the binary's main package")
	}
	if horizon <= 0 {
		horizon = 10 * time.Minute
	}
	return NewChaosFromWindows(spec.Windows(seed, horizon), seed, horizon, now, sleep)
}

// NewChaosFromWindows arms the gate with an explicit window schedule —
// the constructor tests use to pin exact storm positions. Windows of
// one kind must not overlap (faults.Spec.Windows never produces
// overlaps; hand-built schedules must honor the same invariant).
//
// The schedule repeats every horizon, so a window straddling the
// boundary is split into its tail ([Start, horizon)) and the wrapped
// head ([0, End-horizon)): Gate evaluates `elapsed % horizon`, and
// without the split the head portion would fire on the first pass but
// silently vanish on every subsequent wrap — the schedule would not
// replay identically.
func NewChaosFromWindows(windows []faults.Window, seed int64, horizon time.Duration, now func() time.Time, sleep func(time.Duration)) *Chaos {
	c := &Chaos{horizon: horizon, start: now(), now: now, sleep: sleep, seed: seed}
	add := func(w faults.Window) {
		switch w.Kind {
		case faults.NetOutage:
			c.outages = append(c.outages, w)
		case faults.NetLoss:
			c.losses = append(c.losses, w)
		case faults.IOStall:
			c.stalls = append(c.stalls, w)
		case faults.MemSpike:
			c.spikes = append(c.spikes, w)
		}
	}
	for _, w := range windows {
		if w.Duration <= 0 {
			continue
		}
		if w.Start >= horizon {
			// Entirely past the boundary: place it where the repeating
			// schedule will actually observe it.
			w.Start %= horizon
		}
		if over := w.End() - horizon; over > 0 {
			tail := w
			tail.Duration = horizon - tail.Start
			add(tail)
			head := w
			head.Start = 0
			// A window longer than the horizon covers it completely;
			// cap the head at the tail's start so the pieces never
			// overlap themselves.
			if head.Duration = over; head.Duration > w.Start {
				head.Duration = w.Start
			}
			add(head)
			continue
		}
		add(w)
	}
	// activeSeverity binary-searches by start; the head pieces above
	// (and hand-built schedules) may arrive out of order.
	for _, ws := range [][]faults.Window{c.outages, c.losses, c.stalls, c.spikes} {
		sort.Slice(ws, func(i, j int) bool { return ws[i].Start < ws[j].Start })
	}
	return c
}

// activeSeverity returns the severity of the window covering elapsed,
// if any. The windows are sorted by start and non-overlapping.
func activeSeverity(ws []faults.Window, elapsed time.Duration) (float64, bool) {
	lo, hi := 0, len(ws)
	for lo < hi {
		mid := (lo + hi) / 2
		if ws[mid].Start <= elapsed {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// ws[lo-1] is the last window starting at or before elapsed.
	if lo > 0 && ws[lo-1].End() > elapsed {
		return ws[lo-1].Severity, true
	}
	return 0, false
}

// hashUnit maps (seed, n) to a uniform value in [0,1) — the RNG-free
// per-request loss decision (deterministic in arrival order).
func hashUnit(seed, n int64) float64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(n)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return float64(h%100000) / 100000
}

// Gate evaluates the chaos schedule for one request: it sleeps any
// injected response latency, then returns either a rejection status
// or the origin delay the miss path must pay. Callers apply Effect
// before doing any serving work.
func (c *Chaos) Gate() Effect {
	elapsed := c.now().Sub(c.start) % c.horizon
	if sev, ok := activeSeverity(c.spikes, elapsed); ok {
		d := time.Duration(sev / spikeDelayUnit * float64(time.Millisecond))
		if d > 0 {
			c.delayed.Add(1)
			c.sleep(d)
		}
	}
	if _, ok := activeSeverity(c.outages, elapsed); ok {
		c.rejected.Add(1)
		return Effect{Status: 503}
	}
	if rate, ok := activeSeverity(c.losses, elapsed); ok {
		if hashUnit(c.seed, c.reqs.Add(1)) < rate {
			c.rejected.Add(1)
			return Effect{Status: 502}
		}
	}
	if factor, ok := activeSeverity(c.stalls, elapsed); ok && factor > 1 {
		c.stalled.Add(1)
		return Effect{OriginDelay: time.Duration((factor - 1) * float64(nominalOriginDelay))}
	}
	return Effect{}
}

// Delay applies an origin delay through the injected sleep — the miss
// path calls this inside its fill so coalesced waiters share one
// stall, like they share one generation.
func (c *Chaos) Delay(d time.Duration) {
	if d > 0 {
		c.sleep(d)
	}
}

// Stats snapshots the chaos counters.
func (c *Chaos) Stats() ChaosStats {
	return ChaosStats{
		Rejected: c.rejected.Load(),
		Delayed:  c.delayed.Load(),
		Stalled:  c.stalled.Load(),
	}
}
