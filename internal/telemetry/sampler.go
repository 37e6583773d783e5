package telemetry

import (
	"sort"
	"time"

	"coalqoe/internal/simclock"
)

// Period is the sampling cadence on the sim clock: the paper's
// SignalCapturer samples /proc/meminfo and /proc/vmstat every 3 s in
// the MP-Simulator experiments (§4.1).
const Period = 3 * time.Second

// ringCapacity bounds retained samples per series; when a ring fills,
// the oldest samples are dropped. At the 3 s cadence it holds ~3.4
// hours of simulation — effectively unbounded for video-session runs
// while keeping a hard memory ceiling for fleet-length ones.
const ringCapacity = 4096

// ring is a fixed-capacity circular buffer of (time, value) samples.
type ring struct {
	times []time.Duration
	vals  []float64
	head  int // next write position
	n     int // occupied
}

func newRing(capacity int) *ring {
	return &ring{times: make([]time.Duration, capacity), vals: make([]float64, capacity)}
}

func (r *ring) push(t time.Duration, v float64) {
	r.times[r.head] = t
	r.vals[r.head] = v
	r.head = (r.head + 1) % len(r.times)
	if r.n < len(r.times) {
		r.n++
	}
}

// unroll appends the ring's samples in chronological order.
func (r *ring) unroll() (times []time.Duration, vals []float64) {
	times = make([]time.Duration, 0, r.n)
	vals = make([]float64, 0, r.n)
	start := (r.head - r.n + len(r.times)) % len(r.times)
	for i := 0; i < r.n; i++ {
		j := (start + i) % len(r.times)
		times = append(times, r.times[j])
		vals = append(vals, r.vals[j])
	}
	return times, vals
}

// Sampler snapshots a registry's scalar series on the sim clock. Each
// named series gets its own ring, created the first time the series
// appears in the registry, so instruments registered mid-run (a
// late-started player session) simply begin at the next tick.
//
// Sampling is read-only with respect to the simulation: a run's
// trajectory is identical with the sampler on or off (asserted by
// TestTelemetryDoesNotPerturbRun in internal/exp).
type Sampler struct {
	clock  *simclock.Clock
	reg    *Registry
	series map[string]*ring
	event  *simclock.Event

	// plan is the resolved sampling order — each scalar source bound to
	// its ring — cached against the registry's mutation generation so a
	// steady-state Sample() touches no maps at all.
	plan    []source
	planGen uint64
}

// source is one resolved scalar series: exactly one of counter, gauge
// or fn is set.
type source struct {
	counter *Counter
	gauge   *Gauge
	fn      func() float64
	rg      *ring
}

// NewSampler registers a repeating sampling event on the clock (first
// tick after one Period) and returns the sampler. Stop cancels it.
func NewSampler(clock *simclock.Clock, reg *Registry) *Sampler {
	s := &Sampler{
		clock:  clock,
		reg:    reg,
		series: make(map[string]*ring),
	}
	s.event = clock.Every(Period, s.Sample)
	return s
}

// Registry returns the registry the sampler reads.
func (s *Sampler) Registry() *Registry { return s.reg }

// Sample takes one snapshot now. The periodic event calls it; callers
// may also invoke it directly for an edge sample at run end, so the
// final state is always in the series even when the run length is not
// a period multiple.
func (s *Sampler) Sample() {
	if s.reg == nil {
		return
	}
	if s.planGen != s.reg.gen || s.plan == nil {
		s.rebuildPlan()
	}
	now := s.clock.Now()
	for i := range s.plan {
		src := &s.plan[i]
		var v float64
		switch {
		case src.counter != nil:
			v = float64(src.counter.n)
		case src.gauge != nil:
			v = src.gauge.v
		default:
			v = src.fn()
		}
		src.rg.push(now, v)
	}
}

// rebuildPlan re-resolves every scalar series to its source and ring.
// Runs only when the registry mutated since the previous sample (in
// practice: the first tick, plus once whenever a subsystem registers
// instruments mid-run).
func (s *Sampler) rebuildPlan() {
	names := s.reg.Names()
	s.plan = s.plan[:0]
	for _, name := range names {
		src := source{rg: s.series[name]}
		if src.rg == nil {
			src.rg = newRing(ringCapacity)
			s.series[name] = src.rg
		}
		if c, ok := s.reg.counters[name]; ok {
			src.counter = c
		} else if g, ok := s.reg.gauges[name]; ok {
			src.gauge = g
		} else if fn, ok := s.reg.funcs[name]; ok {
			src.fn = fn
		} else {
			continue
		}
		s.plan = append(s.plan, src)
	}
	s.planGen = s.reg.gen
}

// Stop cancels future periodic samples. Collected series remain
// dumpable.
func (s *Sampler) Stop() { s.event.Cancel() }

// Dump extracts everything collected so far — ring-buffered series in
// sorted name order plus whole-run histogram snapshots — as plain
// data, safe to retain in exp.Result without dragging the device
// graph along.
func (s *Sampler) Dump() *Dump {
	var names []string
	for name := range s.series {
		names = append(names, name)
	}
	sort.Strings(names)
	d := &Dump{Period: Period}
	for _, name := range names {
		times, vals := s.series[name].unroll()
		d.Series = append(d.Series, Series{Name: name, Times: times, Values: vals})
	}
	d.Histograms = s.reg.Histograms()
	return d
}
