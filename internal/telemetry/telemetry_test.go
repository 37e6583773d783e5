package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"coalqoe/internal/simclock"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	g := reg.Gauge("y")
	h := reg.Histogram("z")
	reg.SampleFunc("f", func() float64 { return 1 })
	c.Inc()
	c.Add(10)
	g.Set(3)
	g.Add(1)
	g.Max(9)
	h.Observe(time.Millisecond)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	if reg.Names() != nil || reg.Values() != nil || reg.Histograms() != nil {
		t.Fatal("nil registry snapshots must be empty")
	}
	if _, ok := reg.Value("x"); ok {
		t.Fatal("nil registry must not resolve values")
	}
}

func TestCounterGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("a.count")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if again := reg.Counter("a.count"); again != c {
		t.Fatal("re-registration must return the same counter")
	}
	g := reg.Gauge("a.level")
	g.Set(2.5)
	g.Add(-1)
	g.Max(1.0) // below current: no-op
	g.Max(7.5)
	if g.Value() != 7.5 {
		t.Fatalf("gauge = %v, want 7.5", g.Value())
	}
}

func TestCrossKindRegistrationPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dup")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge over a counter must panic")
		}
	}()
	reg.Gauge("dup")
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat")
	h.Observe(0)                     // bucket 0
	h.Observe(500 * time.Nanosecond) // <1µs: bucket 0
	h.Observe(time.Microsecond)      // [1,2)µs: bucket 1
	h.Observe(3 * time.Microsecond)  // [2,4)µs: bucket 2
	h.Observe(time.Millisecond)      // 1000µs: bucket 10 ([512,1024)µs is bucket 10? Len64(1000)=10)
	h.Observe(-time.Second)          // clamped to 0
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	snaps := reg.Histograms()
	if len(snaps) != 1 || snaps[0].Name != "lat" {
		t.Fatalf("snapshot = %+v", snaps)
	}
	s := snaps[0]
	if s.Counts[0] != 3 || s.Counts[1] != 1 || s.Counts[2] != 1 {
		t.Fatalf("bucket counts = %v", s.Counts)
	}
	var total int64
	for _, c := range s.Counts {
		total += c
	}
	if total != 6 {
		t.Fatalf("bucket total = %d, want 6", total)
	}
	// Quantiles: the max observation is 1ms → its bucket's upper edge.
	if q := h.Quantile(1); q < time.Millisecond || q > 2*time.Millisecond {
		t.Fatalf("p100 = %v, want (1ms, 2ms]", q)
	}
	if q := h.Quantile(0); q != time.Microsecond {
		t.Fatalf("p0 = %v, want 1µs (upper edge of bucket 0)", q)
	}
	if h.Mean() <= 0 {
		t.Fatalf("mean = %v, want > 0", h.Mean())
	}
}

func TestNamesSortedAndValues(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("b.gauge").Set(2)
	reg.Counter("a.count").Add(1)
	reg.SampleFunc("c.func", func() float64 { return 3 })
	want := []string{"a.count", "b.gauge", "c.func"}
	got := reg.Names()
	if len(got) != len(want) {
		t.Fatalf("names = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v, want %v", got, want)
		}
	}
	vals := reg.Values()
	if vals[0].Value != 1 || vals[1].Value != 2 || vals[2].Value != 3 {
		t.Fatalf("values = %+v", vals)
	}
	// Adding a series invalidates the sorted cache.
	reg.Counter("0.first")
	if n := reg.Names(); n[0] != "0.first" {
		t.Fatalf("names after add = %v", n)
	}
}

func TestSamplerCollectsSeries(t *testing.T) {
	clock := simclock.New(1)
	reg := NewRegistry()
	c := reg.Counter("events")
	s := NewSampler(clock, reg)
	if s.Registry() != reg {
		t.Fatal("sampler registry not applied")
	}
	clock.Every(Period/2, func() { c.Inc() })
	clock.RunUntil(3 * Period)

	d := s.Dump()
	es := d.Find("events")
	if es == nil {
		t.Fatal("events series missing")
	}
	if len(es.Times) != 3 {
		t.Fatalf("samples = %d, want 3", len(es.Times))
	}
	// At shared instants events fire in registration order: the
	// sampler (registered first) samples before the coincident tick,
	// so each sample sees the odd tick counts 1, 3, 5.
	for i, want := range []float64{1, 3, 5} {
		if es.Values[i] != want {
			t.Fatalf("sample %d = %v, want %v (series %v)", i, es.Values[i], want, es.Values)
		}
	}
	if es.Times[0] != Period || es.Times[2] != 3*Period {
		t.Fatalf("times = %v", es.Times)
	}
}

func TestSamplerLateRegistrationAndEdgeSample(t *testing.T) {
	clock := simclock.New(1)
	reg := NewRegistry()
	s := NewSampler(clock, reg)
	reg.Gauge("early").Set(1)
	clock.At(Period*3/2, func() { reg.Gauge("late").Set(9) })
	clock.RunUntil(Period * 5 / 2)
	s.Sample() // edge sample at 2.5 periods, off the period grid
	d := s.Dump()
	early, late := d.Find("early"), d.Find("late")
	if early == nil || len(early.Times) != 3 {
		t.Fatalf("early = %+v", early)
	}
	if late == nil || len(late.Times) != 2 {
		t.Fatalf("late = %+v (want samples at 2 and 2.5 periods)", late)
	}
	if late.Times[0] != 2*Period || late.Times[1] != Period*5/2 {
		t.Fatalf("late times = %v", late.Times)
	}
}

func TestSamplerRingEviction(t *testing.T) {
	clock := simclock.New(1)
	reg := NewRegistry()
	tick := 0
	reg.SampleFunc("t", func() float64 { tick++; return float64(tick) })
	s := NewSampler(clock, reg)
	// Two ticks past capacity: the ring keeps ticks 3..ringCapacity+2.
	clock.RunUntil((ringCapacity + 2) * Period)
	d := s.Dump()
	ts := d.Find("t")
	if len(ts.Times) != ringCapacity {
		t.Fatalf("retained = %d, want %d", len(ts.Times), ringCapacity)
	}
	for i := range ts.Values {
		if want := float64(i + 3); ts.Values[i] != want || ts.Times[i] != time.Duration(i+3)*Period {
			t.Fatalf("ring[%d] = (%v, %v), want (%v, %v)", i, ts.Times[i], ts.Values[i], time.Duration(i+3)*Period, want)
		}
	}
}

func TestSamplerStop(t *testing.T) {
	clock := simclock.New(1)
	reg := NewRegistry()
	reg.Gauge("g").Set(1)
	s := NewSampler(clock, reg)
	clock.RunUntil(2 * Period)
	s.Stop()
	clock.RunUntil(10 * Period)
	if got := len(s.Dump().Find("g").Times); got != 2 {
		t.Fatalf("samples after stop = %d, want 2", got)
	}
}

func TestWriteCSV(t *testing.T) {
	d := &Dump{
		Period: time.Second,
		Series: []Series{
			{Name: "a", Times: []time.Duration{time.Second, 2 * time.Second}, Values: []float64{1, 2}},
			{Name: "b", Times: []time.Duration{2 * time.Second}, Values: []float64{0.5}},
		},
	}
	var sb strings.Builder
	if err := d.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "t_s,a,b\n1.000000,1,\n2.000000,2,0.5\n"
	if sb.String() != want {
		t.Fatalf("csv = %q, want %q", sb.String(), want)
	}
}

func TestWriteJSONValid(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("h").Observe(5 * time.Microsecond)
	clock := simclock.New(1)
	reg.Counter("c").Add(2)
	s := NewSampler(clock, reg)
	clock.RunUntil(2 * Period)
	var sb strings.Builder
	if err := s.Dump().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		PeriodSec float64 `json:"period_sec"`
		Series    []struct {
			Name    string       `json:"name"`
			Samples [][2]float64 `json:"samples"`
		} `json:"series"`
		Histograms []struct {
			Name    string `json:"name"`
			Count   int64  `json:"count"`
			Buckets []struct {
				LeMicros int64 `json:"le_us"`
				Count    int64 `json:"count"`
			} `json:"buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if doc.PeriodSec != 3 || len(doc.Series) != 1 || doc.Series[0].Name != "c" {
		t.Fatalf("doc = %+v", doc)
	}
	if len(doc.Histograms) != 1 || doc.Histograms[0].Buckets[0].LeMicros != 8 {
		t.Fatalf("histograms = %+v (5µs lands in (4,8]µs)", doc.Histograms)
	}
}

func TestDumpDeterministic(t *testing.T) {
	build := func() string {
		clock := simclock.New(7)
		reg := NewRegistry()
		c := reg.Counter("z.count")
		reg.SampleFunc("a.func", func() float64 { return float64(c.Value()) * 0.5 })
		clock.Every(700*time.Millisecond, func() { c.Add(3) })
		s := NewSampler(clock, reg)
		clock.RunUntil(30 * Period)
		var sb strings.Builder
		if err := s.Dump().WriteCSV(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if build() != build() {
		t.Fatal("identical runs must emit identical bytes")
	}
}

// BenchmarkCounterDisabled is the telemetry-off fast path: a nil
// counter. The acceptance bar is zero allocs/op and low single-digit
// nanoseconds.
func BenchmarkCounterDisabled(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterEnabled(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramDisabled(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
}

// BenchmarkSampleTick measures one sampler tick over a registry the
// size of a fully instrumented device (~30 series).
func BenchmarkSampleTick(b *testing.B) {
	clock := simclock.New(1)
	reg := NewRegistry()
	for _, name := range []string{
		"mem.free_pages", "mem.available_pages", "mem.file_clean_pages",
		"mem.file_dirty_pages", "mem.writeback_pages", "mem.anon_pages",
		"mem.zram_stored_pages", "mem.pressure", "mem.pgscan_pages",
		"mem.pgsteal_pages", "mem.refault_pages", "mem.alloc_stalls",
		"kswapd.wakeups", "kswapd.batches", "lmkd.polls", "lmkd.pressure",
		"lmkd.kills_cached", "lmkd.kills_service", "lmkd.kills_visible",
		"lmkd.kills_foreground", "blockio.reads", "blockio.writes",
		"blockio.pages_read", "blockio.pages_written", "blockio.queue_depth_us",
		"sched.runnable", "sched.preemptions", "player.buffer_ms",
		"player.rung_bps", "player.frames_dropped",
	} {
		v := float64(len(name))
		reg.SampleFunc(name, func() float64 { return v })
	}
	s := NewSampler(clock, reg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample()
	}
}
