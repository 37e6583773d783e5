// Package telemetry is the simulator's observability layer: a
// deterministic, near-zero-overhead metrics registry plus a sim-clock
// sampler that turns registered instruments into ring-buffered time
// series — the in-simulation analog of the paper's SignalCapturer
// (§3: /proc/meminfo, /proc/vmstat, smaps_rollup every few seconds)
// and of the Perfetto counter tracks its root-cause leg reads (§5:
// pgscan/pgsteal, writeback, free memory next to thread states).
//
// Design constraints, in order:
//
//   - Disabled must be free. Every subsystem holds nil instrument
//     pointers until Instrument(reg) is called; all instrument methods
//     are nil-safe no-ops, so the disabled fast path is a single
//     pointer test — no atomics, no interface dispatch, no allocation
//     per event. Benchmarks in bench_test.go hold this to <2% on a
//     full video run.
//   - Deterministic. The registry is single-goroutine like the rest of
//     the simulation (one registry per device, never shared across
//     runs), samples are taken on the virtual clock only, and every
//     emission path iterates series in sorted name order. The package
//     is clean under coalvet, and exp's -race tests assert that dumps
//     are byte-identical between serial and 8-worker runs.
//   - Values are float64 at the sampling boundary. Counters are int64
//     internally (exact), gauges float64; both surface through one
//     sorted (name, value) snapshot so exporters need a single shape.
//
// Concurrency: a Registry is NOT safe for concurrent use, by design —
// the simulation is single-goroutine. The serving stack uses the same
// registry and naming scheme without sharing one across goroutines:
// dash.Server's request path bumps plain atomics, and each /metrics
// snapshot builds a fresh Registry, records those atomics and the
// cdn.Stats, cdn.ChaosStats and cdn.GovernorStats snapshots into it
// (their Record methods own the dash.cache.*, dash.chaos.*,
// dash.admit.*, dash.brownout.* and dash.quota.* names), and returns
// ValueMap. loadgen.RunSim assembles its ServerMetrics the same way,
// once, after the virtual clock drains.
package telemetry

import (
	"fmt"
	"math/bits"
	"sort"
	"time"
)

// Counter is a monotonically increasing event count (pgscan, kills,
// segment requests). The zero pointer is a valid disabled counter:
// every method on a nil *Counter is a no-op, which is the whole
// telemetry-off fast path.
type Counter struct {
	n int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.n++
}

// Add adds n (negative deltas are a caller bug but not checked: the
// hot path stays branch-minimal).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.n += n
}

// Value returns the current count; 0 on a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n
}

// Gauge is an instantaneous level that can move both ways (in-flight
// requests, balloon size). Nil gauges are disabled no-ops.
type Gauge struct {
	v float64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
}

// Add moves the gauge by delta (use +1/-1 for in-flight tracking).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	g.v += delta
}

// Max raises the gauge to v if v exceeds the current value — a
// high-watermark gauge (peak queue backlog).
func (g *Gauge) Max(v float64) {
	if g == nil {
		return
	}
	if v > g.v {
		g.v = v
	}
}

// Value returns the current level; 0 on a nil gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// histBuckets is the fixed bucket count for Histogram: power-of-two
// microsecond buckets 1µs … ~36min, which covers everything from a
// single 4 KiB eMMC read to a whole stalled writeback burst.
const histBuckets = 32

// Histogram records durations in fixed log-spaced (power-of-two
// microsecond) buckets: bucket 0 holds observations under 1µs, bucket
// k holds [2^(k-1), 2^k) µs. Fixed buckets keep Observe allocation-
// free and make merged output trivially stable. Nil histograms are
// disabled no-ops.
//
// It is one of the repository's two histogram types, and exists for
// the single-goroutine simulator's hot paths: nil-safe so a disabled
// instrument costs one pointer test, allocation-free per observation,
// and bucketed at factor-of-two resolution, which suits latencies that
// span µs to minutes. stats.QuantileSketch is the other; use it when
// summaries must merge across goroutines or shards.
type Histogram struct {
	counts [histBuckets]int64
	count  int64
	sum    time.Duration
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	b := bits.Len64(uint64(d / time.Microsecond))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.counts[b]++
	h.count++
	h.sum += d
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the total of all observed durations.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the average observation, or 0 when empty.
func (h *Histogram) Mean() time.Duration {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Quantile returns an upper bound for the q-quantile (0 ≤ q ≤ 1) from
// the bucket boundaries: the upper edge of the bucket containing the
// q-th observation. Resolution is a factor of two, which is plenty for
// "p99 grew from 2ms to 260ms" style findings.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil || h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(h.count-1)) + 1
	var seen int64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketUpper(b)
		}
	}
	return bucketUpper(histBuckets - 1)
}

// bucketUpper returns the exclusive upper edge of bucket b.
func bucketUpper(b int) time.Duration {
	return time.Duration(int64(1)<<uint(b)) * time.Microsecond
}

// BucketUpperMicros returns the upper edge of bucket b in microseconds
// (the le_us field of exported snapshots).
func BucketUpperMicros(b int) int64 { return int64(1) << uint(b) }

// Sample is one (name, value) pair from a registry snapshot.
type Sample struct {
	Name  string
	Value float64
}

// HistogramSnapshot is the exportable state of one named histogram.
// Buckets are truncated after the last non-empty one.
type HistogramSnapshot struct {
	Name   string
	Counts []int64 // counts[b] observations in [2^(b-1), 2^b) µs
	Count  int64
	Sum    time.Duration
}

// Registry holds a device's instruments. Instruments register once by
// name and are looked up (or re-fetched — registration is idempotent
// per kind) with Counter/Gauge/Histogram; derived or read-only series
// register a SampleFunc instead, which costs nothing until sampled.
//
// A nil *Registry is the disabled state: every method returns the
// corresponding nil (disabled) instrument, so call sites never branch.
//
// Series names are dotted lowercase, subsystem first ("mem.pgscan",
// "blockio.queue_depth_us", "player.buffer_ms"), so the sorted
// emission order groups related series — the property LINTING.md's
// maporder rule exists to protect.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	funcs    map[string]func() float64
	hists    map[string]*Histogram

	names      []string // sorted scalar series names; rebuilt when dirty
	namesDirty bool

	// gen counts scalar-source mutations (new counter/gauge, any
	// SampleFunc registration — including a replacement, which changes
	// what a name resolves to without touching the name set). The
	// sampler keys its resolved source cache on it.
	gen uint64
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		funcs:    make(map[string]func() float64),
		hists:    make(map[string]*Histogram),
	}
}

// checkName panics when a name is already registered under a different
// instrument kind — always a wiring bug, and silently shadowing one
// kind with another would corrupt the series.
func (r *Registry) checkName(name, kind string) {
	if _, ok := r.counters[name]; ok && kind != "counter" {
		panic(fmt.Sprintf("telemetry: %q already registered as a counter", name))
	}
	if _, ok := r.gauges[name]; ok && kind != "gauge" {
		panic(fmt.Sprintf("telemetry: %q already registered as a gauge", name))
	}
	if _, ok := r.funcs[name]; ok && kind != "func" {
		panic(fmt.Sprintf("telemetry: %q already registered as a sample func", name))
	}
	if _, ok := r.hists[name]; ok && kind != "histogram" {
		panic(fmt.Sprintf("telemetry: %q already registered as a histogram", name))
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a disabled counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkName(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	r.namesDirty = true
	r.gen++
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// (a disabled gauge) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkName(name, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	r.namesDirty = true
	r.gen++
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Returns nil (a disabled histogram) on a nil registry. Histograms are
// exported whole at dump time, not sampled into series.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.checkName(name, "histogram")
	h := &Histogram{}
	r.hists[name] = h
	return h
}

// SampleFunc registers a derived series: fn is invoked at each sampler
// tick. This is the preferred instrument for state the simulation
// already tracks (free pages, buffer level, cumulative kernel
// counters) — it adds zero cost to the simulation's hot paths.
// Re-registering a name replaces the function (a respawned player
// session re-binds its series). No-op on a nil registry. fn must be
// read-only with respect to simulation state: sampling must not
// perturb the run.
func (r *Registry) SampleFunc(name string, fn func() float64) {
	if r == nil {
		return
	}
	if _, ok := r.funcs[name]; !ok {
		r.checkName(name, "func")
		r.namesDirty = true
	}
	r.funcs[name] = fn
	r.gen++
}

// Names returns all scalar series names (counters, gauges, sample
// funcs — not histograms) in sorted order. The slice is owned by the
// registry; callers must not mutate it.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	if r.namesDirty {
		var names []string
		for name := range r.counters {
			names = append(names, name)
		}
		for name := range r.gauges {
			names = append(names, name)
		}
		for name := range r.funcs {
			names = append(names, name)
		}
		sort.Strings(names)
		r.names = names
		r.namesDirty = false
	}
	return r.names
}

// Value returns the current value of the named scalar series.
func (r *Registry) Value(name string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	if c, ok := r.counters[name]; ok {
		return float64(c.n), true
	}
	if g, ok := r.gauges[name]; ok {
		return g.v, true
	}
	if fn, ok := r.funcs[name]; ok {
		return fn(), true
	}
	return 0, false
}

// Values snapshots every scalar series as sorted (name, value) pairs —
// the shape /metrics endpoints and tests consume.
func (r *Registry) Values() []Sample {
	if r == nil {
		return nil
	}
	names := r.Names()
	out := make([]Sample, 0, len(names))
	for _, name := range names {
		v, _ := r.Value(name)
		out = append(out, Sample{Name: name, Value: v})
	}
	return out
}

// ValueMap snapshots every scalar series as a name -> value map: the
// shape of a /metrics body, which encoding/json writes in sorted key
// order.
func (r *Registry) ValueMap() map[string]float64 {
	names := r.Names()
	out := make(map[string]float64, len(names))
	for _, name := range names {
		out[name], _ = r.Value(name)
	}
	return out
}

// Histograms snapshots every histogram, sorted by name, with bucket
// slices truncated after the last non-empty bucket.
func (r *Registry) Histograms() []HistogramSnapshot {
	if r == nil {
		return nil
	}
	var names []string
	for name := range r.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]HistogramSnapshot, 0, len(names))
	for _, name := range names {
		h := r.hists[name]
		last := -1
		for b, c := range h.counts {
			if c > 0 {
				last = b
			}
		}
		snap := HistogramSnapshot{Name: name, Count: h.count, Sum: h.sum}
		if last >= 0 {
			snap.Counts = append(snap.Counts, h.counts[:last+1]...)
		}
		out = append(out, snap)
	}
	return out
}
