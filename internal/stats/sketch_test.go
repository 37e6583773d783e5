package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// sketchState returns the canonical serialized form, the equality
// oracle for the merge-law tests: two sketches over the same multiset
// must serialize byte-identically.
func sketchState(t *testing.T, s *QuantileSketch) string {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(data)
}

func sketchOf(xs []float64, exactCap int) *QuantileSketch {
	s := NewQuantileSketch(0, 100, 1000, exactCap)
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

func randomValues(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	return xs
}

func TestSketchExactMatchesPercentile(t *testing.T) {
	xs := randomValues(1, 40)
	s := sketchOf(xs, 48)
	if !s.Exact() {
		t.Fatal("40 values under cap 48 should stay exact")
	}
	for _, p := range []float64{0, 1, 10, 25, 50, 75, 90, 99, 100} {
		if got, want := s.Quantile(p), Percentile(xs, p); got != want {
			t.Errorf("Quantile(%v) = %v, want exact %v", p, got, want)
		}
	}
	if got, want := s.BoxPlot(), NewBoxPlot(xs); got != want {
		t.Errorf("BoxPlot = %+v, want %+v", got, want)
	}
	cdf := NewCDF(xs)
	for _, x := range []float64{-1, 0, 12.5, 50, xs[7], 99, 101} {
		if got, want := s.CDFAt(x), cdf.At(x); got != want {
			t.Errorf("CDFAt(%v) = %v, want exact %v", x, got, want)
		}
	}
	if s.MaxQuantileError() != 0 {
		t.Errorf("exact sketch reports error bound %v", s.MaxQuantileError())
	}
}

func TestSketchBinnedErrorBound(t *testing.T) {
	xs := randomValues(2, 5000)
	s := sketchOf(xs, 48)
	if s.Exact() {
		t.Fatal("5000 values over cap 48 should have collapsed")
	}
	bound := s.MaxQuantileError()
	if want := 100.0 / 1000; bound != want {
		t.Fatalf("error bound = %v, want %v", bound, want)
	}
	for _, p := range []float64{1, 5, 25, 50, 75, 95, 99} {
		got, want := s.Quantile(p), Percentile(xs, p)
		if math.Abs(got-want) > bound {
			t.Errorf("Quantile(%v) = %v, exact %v: error %v exceeds bound %v",
				p, got, want, math.Abs(got-want), bound)
		}
	}
	// Min/Max stay exact even in binned mode.
	if s.Quantile(0) != Percentile(xs, 0) || s.Quantile(100) != Percentile(xs, 100) {
		t.Error("binned min/max quantiles not exact")
	}
	// CDF error is bounded by one bin's mass plus bin-width smearing;
	// sanity-check against the exact CDF at a loose tolerance.
	cdf := NewCDF(xs)
	for _, x := range []float64{10, 33.3, 50, 90} {
		if got, want := s.CDFAt(x), cdf.At(x); math.Abs(got-want) > 0.01 {
			t.Errorf("CDFAt(%v) = %v, exact %v", x, got, want)
		}
	}
}

// TestSketchMergeCommutative: A+B == B+A, in exact and binned regimes.
func TestSketchMergeCommutative(t *testing.T) {
	for _, tc := range []struct {
		name   string
		na, nb int
		cap    int
	}{
		{"exact+exact stay exact", 10, 20, 48},
		{"exact+exact collapse", 30, 30, 48},
		{"binned+exact", 500, 20, 48},
		{"binned+binned", 500, 700, 48},
	} {
		a1, b1 := sketchOf(randomValues(3, tc.na), tc.cap), sketchOf(randomValues(4, tc.nb), tc.cap)
		a2, b2 := sketchOf(randomValues(3, tc.na), tc.cap), sketchOf(randomValues(4, tc.nb), tc.cap)
		a1.Merge(b1)
		b2.Merge(a2)
		if got, want := sketchState(t, a1), sketchState(t, b2); got != want {
			t.Errorf("%s: A+B != B+A\n A+B: %s\n B+A: %s", tc.name, got, want)
		}
	}
}

// TestSketchMergeAssociative: (A+B)+C == A+(B+C), including groupings
// where one side collapses earlier than the other.
func TestSketchMergeAssociative(t *testing.T) {
	for _, cap := range []int{0, 48, 10000} {
		mk := func() (a, b, c *QuantileSketch) {
			return sketchOf(randomValues(5, 30), cap),
				sketchOf(randomValues(6, 30), cap),
				sketchOf(randomValues(7, 30), cap)
		}
		a1, b1, c1 := mk()
		a1.Merge(b1) // may collapse here (cap 48)...
		a1.Merge(c1)
		a2, b2, c2 := mk()
		b2.Merge(c2) // ...or here
		a2.Merge(b2)
		if got, want := sketchState(t, a1), sketchState(t, a2); got != want {
			t.Errorf("cap %d: (A+B)+C != A+(B+C)\n lhs: %s\n rhs: %s", cap, got, want)
		}
	}
}

// TestSketchInsertionOrderIrrelevant: the canonical state is the same
// whatever order values arrive in — the property that lets shards fold
// users in completion order without losing determinism.
func TestSketchInsertionOrderIrrelevant(t *testing.T) {
	xs := randomValues(8, 100)
	fwd := sketchOf(xs, 48)
	rev := NewQuantileSketch(0, 100, 1000, 48)
	for i := len(xs) - 1; i >= 0; i-- {
		rev.Add(xs[i])
	}
	if got, want := sketchState(t, fwd), sketchState(t, rev); got != want {
		t.Errorf("insertion order changed state\n fwd: %s\n rev: %s", got, want)
	}
}

func TestSketchJSONRoundTrip(t *testing.T) {
	for _, n := range []int{0, 5, 300} {
		s := sketchOf(randomValues(9, n), 48)
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var back QuantileSketch
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if got := sketchState(t, &back); got != string(data) {
			t.Errorf("n=%d round trip changed state:\n before: %s\n after:  %s", n, data, got)
		}
		// The restored sketch keeps folding and merging correctly.
		back.Add(50)
		if back.N() != int64(n)+1 {
			t.Errorf("restored sketch N = %d, want %d", back.N(), n+1)
		}
	}
}

func TestSketchMergeIncompatiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("merging incompatible sketches should panic")
		}
	}()
	NewQuantileSketch(0, 1, 10, 4).Merge(NewQuantileSketch(0, 2, 10, 4))
}

func TestSketchClampsOutOfRange(t *testing.T) {
	s := NewQuantileSketch(0, 10, 10, 0) // pure binned
	s.Add(-5)
	s.Add(15)
	s.Add(5)
	if s.Min() != -5 || s.Max() != 15 {
		t.Errorf("min/max = %v/%v, want -5/15", s.Min(), s.Max())
	}
	if q := s.Quantile(50); q < -5 || q > 15 {
		t.Errorf("median %v outside observed range", q)
	}
}
