package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
}

func TestStdDev(t *testing.T) {
	if StdDev([]float64{5}) != 0 {
		t.Error("StdDev of single sample should be 0")
	}
	// Known value: sample stddev of {2,4,4,4,5,5,7,9} is ~2.138.
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almost(got, 2.13809, 1e-4) {
		t.Errorf("StdDev = %v, want ~2.138", got)
	}
}

func TestCI95(t *testing.T) {
	// Five samples (paper's run count): df=4, t=2.776.
	xs := []float64{10, 12, 11, 13, 9}
	want := 2.776 * StdDev(xs) / math.Sqrt(5)
	if got := CI95(xs); !almost(got, want, 1e-9) {
		t.Errorf("CI95 = %v, want %v", got, want)
	}
	if CI95([]float64{1}) != 0 {
		t.Error("CI95 of single sample should be 0")
	}
}

func TestCI95LargeNUsesNormal(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	want := 1.96 * StdDev(xs) / 10
	if got := CI95(xs); !almost(got, want, 1e-9) {
		t.Errorf("CI95 = %v, want %v", got, want)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {75, 40},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want, 1e-9) {
			t.Errorf("P%.0f = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(nil) != 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); !almost(got, cse.want, 1e-9) {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
	if got := c.Quantile(0.5); got != 2 {
		t.Errorf("Quantile(0.5) = %v, want 2", got)
	}
	if got := c.Quantile(1); got != 3 {
		t.Errorf("Quantile(1) = %v, want 3", got)
	}
}

func TestCDFQuantileAtInverse(t *testing.T) {
	// Property: At(Quantile(q)) >= q for all q in (0, 1].
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	c := NewCDF(xs)
	for q := 0.01; q <= 1.0; q += 0.01 {
		if c.At(c.Quantile(q)) < q-1e-9 {
			t.Fatalf("At(Quantile(%v)) = %v < q", q, c.At(c.Quantile(q)))
		}
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2})
	xs, ps := c.Points()
	if !sort.Float64sAreSorted(xs) {
		t.Errorf("xs not sorted: %v", xs)
	}
	if ps[len(ps)-1] != 1 {
		t.Errorf("last p = %v, want 1", ps[len(ps)-1])
	}
}

func TestBoxPlot(t *testing.T) {
	b := NewBoxPlot([]float64{1, 2, 3, 4, 5})
	if b.Min != 1 || b.Max != 5 || b.Median != 3 || b.Q1 != 2 || b.Q3 != 4 {
		t.Errorf("unexpected summary: %+v", b)
	}
	if NewBoxPlot(nil).N != 0 {
		t.Error("empty boxplot should have N=0")
	}
}

func TestBoxPlotOrderingProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		b := NewBoxPlot(xs)
		return b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPctRatioClamp(t *testing.T) {
	if Pct(1, 4) != 25 {
		t.Error("Pct(1,4) != 25")
	}
	if Ratio(1, 0) != 0 {
		t.Error("Ratio(_, 0) != 0")
	}
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp misbehaves")
	}
}

func TestSummarizeString(t *testing.T) {
	s := Summarize([]float64{10, 10, 10})
	if s.Mean != 10 || s.CI != 0 || s.N != 3 {
		t.Errorf("Summarize = %+v", s)
	}
	if s.String() != "10.0 ± 0.0" {
		t.Errorf("String = %q", s.String())
	}
}

func TestMedianEven(t *testing.T) {
	if got := Median([]float64{1, 2, 3, 4}); !almost(got, 2.5, 1e-9) {
		t.Errorf("Median = %v, want 2.5", got)
	}
}
