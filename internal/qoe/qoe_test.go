package qoe

import (
	"math/rand"
	"testing"
	"time"

	"coalqoe/internal/player"
)

func TestDMOSMatchesPaperShape(t *testing.T) {
	// The paper's survey: 99 participants, reference at 3% drops vs
	// test at 35%; 60 users rated 1 or 2 and the vast majority noticed
	// a difference (Figure 10).
	rng := rand.New(rand.NewSource(42))
	hist := Survey(99, 3, 35, rng)
	low := hist[1] + hist[2]
	if low < 45 || low > 75 {
		t.Errorf("ratings of 1-2 = %d, want ~60 (paper)", low)
	}
	noticed := 99 - hist[5]
	if noticed < 80 {
		t.Errorf("%d/99 noticed a difference, want vast majority", noticed)
	}
	mean := MeanScore(hist)
	if mean < 1.8 || mean > 3.0 {
		t.Errorf("mean DMOS = %v, want ~2.2-2.6", mean)
	}
}

func TestDMOSIdenticalClips(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	hist := Survey(99, 3, 3, rng)
	if MeanScore(hist) < 4.2 {
		t.Errorf("identical clips scored %v, want ~4.5+", MeanScore(hist))
	}
}

func TestDMOSMonotoneInDegradation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prev := 5.0
	for _, drop := range []float64{5, 20, 40, 60} {
		m := MeanScore(Survey(500, 3, drop, rng))
		if m > prev+0.1 {
			t.Errorf("DMOS not monotone: %v%% drops scored %v > previous %v", drop, m, prev)
		}
		prev = m
	}
}

func TestDMOSBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		s := RateDMOS(0, 100, rng)
		if s < 1 || s > 5 {
			t.Fatalf("score %d out of bounds", s)
		}
	}
}

func TestMOS(t *testing.T) {
	perfect := player.Metrics{FramesRendered: 3600, FPSTimeline: make([]float64, 60)}
	if got := MOS(perfect); got != 5 {
		t.Errorf("perfect session MOS = %v, want 5", got)
	}
	crashed := player.Metrics{Crashed: true}
	if got := MOS(crashed); got != 1 {
		t.Errorf("crashed session MOS = %v, want 1", got)
	}
	droppy := player.Metrics{FramesRendered: 1800, FramesDropped: 1800,
		EffectiveDropRate: 50, FPSTimeline: make([]float64, 60)}
	if got := MOS(droppy); got <= 1 || got >= 3 {
		t.Errorf("50%% drops MOS = %v, want in (1,3)", got)
	}
	stally := player.Metrics{FramesRendered: 1800, StallTime: 30 * time.Second,
		FPSTimeline: make([]float64, 60)}
	if got := MOS(stally); got >= 5 {
		t.Errorf("stalling session MOS = %v, want < 5", got)
	}
}

func TestMOSBoundaries(t *testing.T) {
	// Zero-duration session: never presented a frame, never crashed.
	// Before the FramesRendered+FramesDropped guard this scored a
	// perfect 5.
	zero := player.Metrics{}
	if got := MOS(zero); got != 1 {
		t.Errorf("zero-duration session MOS = %v, want 1", got)
	}
	// All frames dropped: worst playable session, must floor at 1.
	allDropped := player.Metrics{FramesDropped: 3600, DropRate: 100,
		EffectiveDropRate: 100, FPSTimeline: make([]float64, 60)}
	if got := MOS(allDropped); got != 1 {
		t.Errorf("all-dropped session MOS = %v, want 1", got)
	}
	// A single rendered frame is playable — strictly above the floor
	// only if drops and stalls allow; here nothing else is wrong.
	oneFrame := player.Metrics{FramesRendered: 1, FPSTimeline: make([]float64, 1)}
	if got := MOS(oneFrame); got != 5 {
		t.Errorf("one clean frame MOS = %v, want 5", got)
	}
}

func TestMeanScoreEmpty(t *testing.T) {
	if MeanScore([6]int{}) != 0 {
		t.Error("empty histogram mean should be 0")
	}
}
