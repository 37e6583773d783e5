// Package qoe maps client-level metrics to user-perceived quality.
//
// Two models are provided:
//
//   - DMOS, the differential mean-opinion-score survey of §4.3 /
//     Figure 10: participants watch a reference and a degraded clip and
//     rate the relative experience 1–5 (5 = no noticeable difference,
//     1 = very annoying). The model is calibrated so a 3% vs 35% drop
//     rate pair reproduces the paper's histogram: a strong majority
//     rating 1–2.
//   - MOS, an absolute 1–5 opinion score for a session, combining frame
//     drops, rebuffering and crashes. Used to compare ABR policies.
package qoe

import (
	"math"
	"math/rand"

	"coalqoe/internal/player"
)

// The differential survey's rater model, calibrated against Figure 10.
const (
	// dmosSlope is the DMOS penalty per unit of drop-rate difference
	// (fraction, 0–1).
	dmosSlope = 8
	// dmosNoise is the rater noise standard deviation.
	dmosNoise = 0.9
)

// RateDMOS returns one participant's DMOS (1–5) for a test clip with
// testDrop percent frame drops against a reference with refDrop.
func RateDMOS(refDrop, testDrop float64, rng *rand.Rand) int {
	delta := (testDrop - refDrop) / 100
	if delta < 0 {
		delta = 0
	}
	s := 5 - dmosSlope*delta + rng.NormFloat64()*dmosNoise
	score := int(math.Round(s))
	if score < 1 {
		score = 1
	}
	if score > 5 {
		score = 5
	}
	return score
}

// Survey simulates n participants and returns the score histogram
// (index 0 unused; 1–5 hold counts) — Figure 10's frequency
// distribution.
func Survey(n int, refDrop, testDrop float64, rng *rand.Rand) [6]int {
	var hist [6]int
	for i := 0; i < n; i++ {
		hist[RateDMOS(refDrop, testDrop, rng)]++
	}
	return hist
}

// MeanScore returns the mean of a survey histogram.
func MeanScore(hist [6]int) float64 {
	sum, n := 0, 0
	for s := 1; s <= 5; s++ {
		sum += s * hist[s]
		n += hist[s]
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// MOS scores a finished session on the 1–5 absolute scale. Frame drops
// dominate; rebuffering adds impairment; a crash is a floor score.
func MOS(m player.Metrics) float64 {
	if m.Crashed {
		return 1
	}
	if m.FramesRendered+m.FramesDropped == 0 {
		// No frame ever reached a presentation slot: the session was
		// unplayable (never started, or stalled for its whole life).
		// Without this guard a zero-duration session would score a
		// perfect 5 on the strength of an empty drop rate.
		return 1
	}
	drop := m.EffectiveDropRate / 100
	stall := 0.0
	if n := len(m.FPSTimeline); n > 0 {
		stall = m.StallTime.Seconds() / float64(n)
	}
	s := 5 - 7*drop - 3*stall
	if s < 1 {
		s = 1
	}
	if s > 5 {
		s = 5
	}
	return s
}
