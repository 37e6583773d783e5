// Package stats provides the small statistics toolkit used by the
// experiment harness: means with confidence intervals, CDFs,
// percentiles, histograms, and boxplot five-number summaries.
//
// The paper reports means with 95% confidence intervals over five runs
// (§4.1), CDFs over the device fleet (Figure 2), scatter/fraction plots
// (Figures 3–4), violin-style distributions (Figure 5), and boxplots of
// state dwell times (Figure 6). Everything needed to regenerate those
// summaries lives here.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator).
// It returns 0 for fewer than two samples.
func StdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(n-1))
}

// tCritical95 holds two-sided 95% Student-t critical values indexed by
// degrees of freedom (1-based). Values beyond the table fall back to the
// normal approximation 1.96.
var tCritical95 = []float64{
	0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// CI95 returns the half-width of the 95% confidence interval of the mean
// of xs using the Student-t distribution, matching the paper's "mean
// results with 95% confidence intervals" reporting. It returns 0 for
// fewer than two samples.
func CI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	df := n - 1
	t := 1.96
	if df < len(tCritical95) {
		t = tCritical95[df]
	}
	return t * StdDev(xs) / math.Sqrt(float64(n))
}

// MeanCI is a mean together with its 95% CI half-width.
type MeanCI struct {
	Mean float64
	CI   float64
	N    int
}

// Summarize computes the MeanCI of xs.
func Summarize(xs []float64) MeanCI {
	return MeanCI{Mean: Mean(xs), CI: CI95(xs), N: len(xs)}
}

// String renders as "m ± ci".
func (m MeanCI) String() string { return fmt.Sprintf("%.1f ± %.1f", m.Mean, m.CI) }

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using
// linear interpolation between closest ranks. It returns 0 for an empty
// slice. The input is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// CDF is an empirical cumulative distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF over xs. The input is copied.
func NewCDF(xs []float64) *CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P[X ≤ x].
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, x)
	// Advance over equal values so At is right-continuous (≤, not <).
	for i < len(c.sorted) && c.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the smallest x with P[X ≤ x] ≥ q, for q in (0,1].
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	i := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return c.sorted[i]
}

// Points returns (x, P[X ≤ x]) pairs suitable for plotting the CDF curve.
func (c *CDF) Points() (xs, ps []float64) {
	n := len(c.sorted)
	xs = make([]float64, n)
	ps = make([]float64, n)
	for i, v := range c.sorted {
		xs[i] = v
		ps[i] = float64(i+1) / float64(n)
	}
	return xs, ps
}

// N returns the number of samples behind the CDF.
func (c *CDF) N() int { return len(c.sorted) }

// BoxPlot is a five-number summary plus mean, as used for the dwell-time
// boxplots in Figure 6.
type BoxPlot struct {
	Min, Q1, Median, Q3, Max, Mean float64
	N                              int
}

// NewBoxPlot summarizes xs. It returns a zero BoxPlot for empty input.
func NewBoxPlot(xs []float64) BoxPlot {
	if len(xs) == 0 {
		return BoxPlot{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return BoxPlot{
		Min:    s[0],
		Q1:     percentileSorted(s, 25),
		Median: percentileSorted(s, 50),
		Q3:     percentileSorted(s, 75),
		Max:    s[len(s)-1],
		Mean:   Mean(s),
		N:      len(s),
	}
}

// String renders the summary compactly.
func (b BoxPlot) String() string {
	return fmt.Sprintf("min=%.1f q1=%.1f med=%.1f q3=%.1f max=%.1f (n=%d)",
		b.Min, b.Q1, b.Median, b.Q3, b.Max, b.N)
}

// Ratio returns a/b, or 0 when b is 0. It keeps percentage computations
// in the experiment code tidy.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Pct returns 100*a/b, or 0 when b is 0.
func Pct(a, b float64) float64 { return 100 * Ratio(a, b) }

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
