package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tailLadder is the set of percentiles the tail metric may report. The
// rule picks the highest one that leaves at least minBeyond samples
// strictly above it. The ladder stops at p99.9: further out, a
// microsecond-scale op's time is set by garbage-collector pauses and
// host scheduling rather than by the program.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.5, 99.9}

const minBeyond = 10

// nearestRank returns the 1-based nearest-rank index of percentile p
// over n samples. The small slack keeps p99.9 of 10000 samples at rank
// 9990 despite 99.9 having no exact binary form.
func nearestRank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// Tail is the tail-latency summary of one timed phase.
type Tail struct {
	Percentile float64
	Value      time.Duration
	Samples    int // samples in the phase
	Beyond     int // samples strictly beyond the reported rank
}

// tailOf applies the tail rule to sorted samples. With fewer than
// minBeyond+1 samples no percentile qualifies and the median is
// reported with whatever lies beyond it.
func tailOf(sorted []time.Duration) Tail {
	n := len(sorted)
	t := Tail{Percentile: tailLadder[0], Samples: n}
	for _, p := range tailLadder {
		if n-nearestRank(p, n) >= minBeyond {
			t.Percentile = p
		}
	}
	if n == 0 {
		return t
	}
	r := nearestRank(t.Percentile, n)
	t.Value = sorted[r-1]
	t.Beyond = n - r
	return t
}

// median of sorted samples.
func median(sorted []time.Duration) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(50, len(sorted))-1]
}

func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	return s[nearestRank(50, len(s))-1]
}

// trimmedMean is the mean of xs without its lowest and highest value.
// Round peaks of the resident set fall into two levels, set by where
// the collector's cycles land; a mean counts how often each occurs,
// where a median would jump from one level to the other.
func trimmedMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) > 2 {
		s = s[1 : len(s)-1]
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func sortedCopy(xs []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// resetPeakRSS restarts the kernel's count of this process's peak
// resident set (VmHWM), so that peakRSSMB covers only what follows. It
// reports whether the kernel allowed it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the peak resident set size since the last successful
// resetPeakRSS, or over the process's life if there was none.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// Fingerprint folds a run's outputs into one hash, so two commits can
// be shown to produce identical results op for op.
type Fingerprint struct{ h hash.Hash64 }

func newFingerprint() *Fingerprint { return &Fingerprint{h: fnv.New64a()} }

// Add folds integer outputs in order.
func (f *Fingerprint) Add(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		f.h.Write(b[:])
	}
}

// AddFloat folds a float output by its exact bits.
func (f *Fingerprint) AddFloat(v float64) { f.Add(int64(math.Float64bits(v))) }

// Sum is the fingerprint so far.
func (f *Fingerprint) Sum() uint64 { return f.h.Sum64() }
