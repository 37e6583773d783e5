// Streaming, mergeable summaries for fleet-scale aggregation.
//
// The §3 user study originally retained one DeviceLog (with its full
// 1 Hz sample trace) per participant; that caps the panel at whatever
// fits in memory. QuantileSketch is the replacement: each device folds
// its scalar observations in, the log is dropped, and per-shard
// sketches merge into one fleet-wide summary. The design contract,
// held by the law tests in sketch_test.go:
//
//   - Deterministic: the sketch state after observing a multiset of
//     values is independent of insertion and merge order, so serial,
//     sharded and checkpoint-resumed runs serialize byte-identically.
//   - Exact below ExactCap: while the total count is ≤ ExactCap the
//     sketch stores the raw values and Quantile/BoxPlot/CDFAt agree
//     exactly with stats.Percentile/NewBoxPlot/CDF.At, so small fleets
//     (the paper's 48 devices) reproduce the original figures.
//   - Bounded above ExactCap: the values collapse into NBins fixed
//     bins over [Lo, Hi); quantiles are then accurate to one bin width
//     ((Hi-Lo)/NBins, see MaxQuantileError), values outside the range
//     clamp into the edge bins, and memory stays O(NBins) forever.
//
// It is one of the repository's two histogram types. It exists for
// summaries built in pieces and then merged: fleet shards
// (study.FleetAggregate) and loadgen's per-player latency, merged
// after a run. Those need merging, order independence and exactness
// below the cap. telemetry.Histogram, the other type, is nil-safe and
// allocation-free for the single-goroutine simulator instead.
//
// No float accumulators are carried across folds: counts are integers
// and derived statistics (mean, quantiles) are computed at query time
// from the canonical state, so float non-associativity cannot make a
// sharded run differ from a serial one.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// QuantileSketch is a deterministic, mergeable streaming quantile /
// histogram / CDF summary. The zero value is not usable; construct
// with NewQuantileSketch.
type QuantileSketch struct {
	lo, hi   float64
	nbins    int
	exactCap int

	n        int64
	min, max float64
	// exact holds the raw values while n ≤ exactCap (order arbitrary
	// between canonicalizations; sorted on demand). bins is non-nil
	// once collapsed; exactly one of the two is active.
	exact  []float64
	sorted bool
	bins   []int64
}

// NewQuantileSketch creates a sketch whose binned mode covers [lo, hi)
// with nbins bins and which stays exact up to exactCap values.
// exactCap 0 means collapse immediately (pure binned mode).
func NewQuantileSketch(lo, hi float64, nbins, exactCap int) *QuantileSketch {
	if nbins <= 0 || hi <= lo || exactCap < 0 {
		panic(fmt.Sprintf("stats: invalid sketch [%v,%v) nbins=%d exactCap=%d", lo, hi, nbins, exactCap))
	}
	return &QuantileSketch{lo: lo, hi: hi, nbins: nbins, exactCap: exactCap}
}

// Add folds one observation in. NaN is rejected (it has no place in a
// total order and would break canonical sorting).
func (s *QuantileSketch) Add(x float64) {
	if math.IsNaN(x) {
		panic("stats: NaN added to QuantileSketch")
	}
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	if s.bins != nil {
		s.bins[s.binOf(x)]++
		return
	}
	s.exact = append(s.exact, x)
	s.sorted = false
	if int64(len(s.exact)) > int64(s.exactCap) {
		s.collapse()
	}
}

// binOf clamps x into a bin index, so out-of-range values land in
// the edge bins.
func (s *QuantileSketch) binOf(x float64) int {
	i := int((x - s.lo) / (s.hi - s.lo) * float64(s.nbins))
	if i < 0 {
		i = 0
	}
	if i >= s.nbins {
		i = s.nbins - 1
	}
	return i
}

// collapse moves the exact values into bins. Binning is per-value and
// independent of order, so collapsing A∪B∪C gives the same bins no
// matter how the union was grouped — the heart of merge associativity.
func (s *QuantileSketch) collapse() {
	s.bins = make([]int64, s.nbins)
	for _, x := range s.exact {
		s.bins[s.binOf(x)]++
	}
	s.exact = nil
	s.sorted = false
}

// canon sorts the exact values so queries and serialization see one
// canonical representation regardless of insertion order.
func (s *QuantileSketch) canon() {
	if s.bins == nil && !s.sorted {
		sort.Float64s(s.exact)
		s.sorted = true
	}
}

// Merge folds o into s. Both sketches must share lo/hi/nbins/exactCap
// (they come from the same aggregate schema); o is not modified. The
// result is the sketch of the union multiset: if the combined count
// still fits ExactCap it stays exact, otherwise it collapses.
func (s *QuantileSketch) Merge(o *QuantileSketch) {
	if !s.SameShape(o) {
		panic(fmt.Sprintf("stats: merging incompatible sketches [%v,%v)/%d/%d vs [%v,%v)/%d/%d",
			s.lo, s.hi, s.nbins, s.exactCap, o.lo, o.hi, o.nbins, o.exactCap))
	}
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		s.min, s.max = o.min, o.max
	} else {
		if o.min < s.min {
			s.min = o.min
		}
		if o.max > s.max {
			s.max = o.max
		}
	}
	s.n += o.n
	switch {
	case s.bins == nil && o.bins == nil:
		s.exact = append(s.exact, o.exact...)
		s.sorted = false
		if int64(len(s.exact)) > int64(s.exactCap) {
			s.collapse()
		}
	case s.bins == nil:
		s.collapse()
		for i, c := range o.bins {
			s.bins[i] += c
		}
	case o.bins == nil:
		for _, x := range o.exact {
			s.bins[s.binOf(x)]++
		}
	default:
		for i, c := range o.bins {
			s.bins[i] += c
		}
	}
}

// SameShape reports whether s and o share lo/hi/nbins/exactCap, the
// condition for merging them.
func (s *QuantileSketch) SameShape(o *QuantileSketch) bool {
	return s.lo == o.lo && s.hi == o.hi && s.nbins == o.nbins && s.exactCap == o.exactCap
}

// N returns the number of observations folded in.
func (s *QuantileSketch) N() int64 { return s.n }

// Exact reports whether the sketch still holds raw values (quantiles
// are exact) or has collapsed to bins (quantiles carry up to
// MaxQuantileError of error).
func (s *QuantileSketch) Exact() bool { return s.bins == nil }

// Min and Max are exact at any scale — they are maintained directly,
// not derived from the bins.
func (s *QuantileSketch) Min() float64 { return s.min }

// Max returns the largest observation.
func (s *QuantileSketch) Max() float64 { return s.max }

// MaxQuantileError bounds |Quantile(p) - exact percentile|: zero while
// the sketch is exact, one bin width once collapsed.
func (s *QuantileSketch) MaxQuantileError() float64 {
	if s.bins == nil {
		return 0
	}
	return (s.hi - s.lo) / float64(s.nbins)
}

// Quantile returns the p-th percentile (0 ≤ p ≤ 100). In exact mode it
// matches stats.Percentile bit-for-bit; in binned mode it linearly
// interpolates within the containing bin and is accurate to
// MaxQuantileError.
func (s *QuantileSketch) Quantile(p float64) float64 {
	if s.n == 0 {
		return 0
	}
	if s.bins == nil {
		s.canon()
		return percentileSorted(s.exact, p)
	}
	if p <= 0 {
		return s.min
	}
	if p >= 100 {
		return s.max
	}
	rank := p / 100 * float64(s.n-1)
	width := (s.hi - s.lo) / float64(s.nbins)
	var cum int64
	for i, c := range s.bins {
		if c == 0 {
			continue
		}
		if float64(cum+c) > rank {
			frac := (rank - float64(cum) + 0.5) / float64(c)
			x := s.lo + (float64(i)+Clamp(frac, 0, 1))*width
			return Clamp(x, s.min, s.max)
		}
		cum += c
	}
	return s.max
}

// CDFAt returns P[X ≤ x]. Exact mode matches CDF.At (right-continuous,
// counting equal values); binned mode interpolates within the bin
// containing x and clamps outside [Min, Max].
func (s *QuantileSketch) CDFAt(x float64) float64 {
	if s.n == 0 {
		return 0
	}
	if s.bins == nil {
		s.canon()
		i := sort.SearchFloat64s(s.exact, x)
		for i < len(s.exact) && s.exact[i] == x {
			i++
		}
		return float64(i) / float64(s.n)
	}
	if x < s.min {
		return 0
	}
	if x >= s.max {
		return 1
	}
	width := (s.hi - s.lo) / float64(s.nbins)
	pos := (x - s.lo) / width
	bin := int(pos)
	if bin < 0 {
		return 0
	}
	if bin >= s.nbins {
		return 1
	}
	var cum int64
	for i := 0; i < bin; i++ {
		cum += s.bins[i]
	}
	within := float64(s.bins[bin]) * (pos - float64(bin))
	return Clamp((float64(cum)+within)/float64(s.n), 0, 1)
}

// Mean returns the arithmetic mean: exact from the raw values while
// exact (computed over the canonical sorted order, so it is merge-order
// independent), and from bin midpoints once collapsed (error bounded by
// half a bin width).
func (s *QuantileSketch) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	if s.bins == nil {
		s.canon()
		return Mean(s.exact)
	}
	width := (s.hi - s.lo) / float64(s.nbins)
	sum := 0.0
	for i, c := range s.bins {
		if c != 0 {
			mid := Clamp(s.lo+(float64(i)+0.5)*width, s.min, s.max)
			sum += mid * float64(c)
		}
	}
	return sum / float64(s.n)
}

// BoxPlot summarizes the sketch as the five-number summary used by the
// dwell/availability figures. In exact mode it equals NewBoxPlot over
// the same values.
func (s *QuantileSketch) BoxPlot() BoxPlot {
	if s.n == 0 {
		return BoxPlot{}
	}
	return BoxPlot{
		Min:    s.min,
		Q1:     s.Quantile(25),
		Median: s.Quantile(50),
		Q3:     s.Quantile(75),
		Max:    s.max,
		Mean:   s.Mean(),
		N:      int(s.n),
	}
}

// sketchJSON is the serialized form: the canonical state, so two
// sketches over the same multiset marshal byte-identically.
type sketchJSON struct {
	Lo       float64   `json:"lo"`
	Hi       float64   `json:"hi"`
	NBins    int       `json:"nbins"`
	ExactCap int       `json:"exact_cap"`
	N        int64     `json:"n"`
	Min      float64   `json:"min"`
	Max      float64   `json:"max"`
	Exact    []float64 `json:"exact,omitempty"`
	Bins     []int64   `json:"bins,omitempty"`
}

// MarshalJSON serializes the canonical (sorted) state for checkpoints.
func (s *QuantileSketch) MarshalJSON() ([]byte, error) {
	s.canon()
	return json.Marshal(sketchJSON{
		Lo: s.lo, Hi: s.hi, NBins: s.nbins, ExactCap: s.exactCap,
		N: s.n, Min: s.min, Max: s.max, Exact: s.exact, Bins: s.bins,
	})
}

// UnmarshalJSON restores a checkpointed sketch.
func (s *QuantileSketch) UnmarshalJSON(data []byte) error {
	var j sketchJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if j.NBins <= 0 || j.Hi <= j.Lo || j.ExactCap < 0 {
		return fmt.Errorf("stats: invalid sketch state [%v,%v) nbins=%d exactCap=%d", j.Lo, j.Hi, j.NBins, j.ExactCap)
	}
	if j.Bins != nil && len(j.Bins) != j.NBins {
		return fmt.Errorf("stats: sketch state has %d bins, want %d", len(j.Bins), j.NBins)
	}
	// The count must match the stored values, or queries index past
	// them: exact mode holds n ≤ exactCap raw values, binned mode holds
	// non-negative bin counts summing to n and no raw values.
	if j.Bins == nil {
		if j.N != int64(len(j.Exact)) || len(j.Exact) > j.ExactCap {
			return fmt.Errorf("stats: sketch state counts %d values but holds %d exact (cap %d)", j.N, len(j.Exact), j.ExactCap)
		}
	} else {
		sum := int64(0)
		for _, c := range j.Bins {
			if c < 0 {
				return fmt.Errorf("stats: sketch state has a negative bin count %d", c)
			}
			sum += c
		}
		if sum != j.N || len(j.Exact) != 0 {
			return fmt.Errorf("stats: sketch state counts %d values but its bins hold %d (and %d exact)", j.N, sum, len(j.Exact))
		}
	}
	*s = QuantileSketch{
		lo: j.Lo, hi: j.Hi, nbins: j.NBins, exactCap: j.ExactCap,
		n: j.N, min: j.Min, max: j.Max, exact: j.Exact, sorted: true, bins: j.Bins,
	}
	return nil
}
