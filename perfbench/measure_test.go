package main

import (
	"testing"
	"time"
)

func TestTailKeepsTenBeyond(t *testing.T) {
	// From 20 samples on, the median has 10 beyond it.
	for n := 20; n <= 200000; n = n*3/2 + 1 {
		sorted := make([]time.Duration, n)
		for i := range sorted {
			sorted[i] = time.Duration(i + 1)
		}
		tail := tailOf(sorted)
		beyond := 0
		for _, d := range sorted {
			if d > tail.Value {
				beyond++
			}
		}
		if beyond < minBeyond || beyond != tail.Beyond {
			t.Fatalf("n=%d: p%g has %d samples beyond it (reported %d), want >= %d",
				n, tail.Percentile, beyond, tail.Beyond, minBeyond)
		}
		// No higher ladder percentile would also have qualified.
		for _, p := range tailLadder {
			if p > tail.Percentile && n-nearestRank(p, n) >= minBeyond {
				t.Fatalf("n=%d: reported p%g but p%g also keeps %d beyond", n, tail.Percentile, p, minBeyond)
			}
		}
	}
}

func TestTailPicksLadder(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{20, 50}, {100, 90}, {400, 95}, {1000, 99}, {2000, 99.5}, {10000, 99.9}, {1000000, 99.9},
	}
	for _, c := range cases {
		sorted := make([]time.Duration, c.n)
		if got := tailOf(sorted).Percentile; got != c.want {
			t.Errorf("n=%d: tail percentile %g, want %g", c.n, got, c.want)
		}
	}
}
