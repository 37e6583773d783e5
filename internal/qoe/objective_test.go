package qoe

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"coalqoe/internal/dash"
)

// The property battery. Each test states one clause of the Objective
// doc contract and hammers it with seeded random traces; a failure
// prints the trial seed so the exact trace can be replayed.

func arenaLadder() []dash.Rung { return dash.Ladder(24, 30, 48, 60) }

// randTrace builds a random but structurally valid trace over the
// ladder: up to 40 chunks, rebuffer up to 10s each, startup up to 20s.
func randTrace(rng *rand.Rand, ladder []dash.Rung) Trace {
	n := rng.Intn(40)
	t := Trace{
		Startup:     time.Duration(rng.Int63n(int64(20 * time.Second))),
		TotalChunks: n + rng.Intn(10),
		Crashed:     rng.Intn(4) == 0,
	}
	for i := 0; i < n; i++ {
		t.Chunks = append(t.Chunks, Chunk{
			Index:     i,
			Rung:      ladder[rng.Intn(len(ladder))],
			Duration:  4 * time.Second,
			Rebuffer:  time.Duration(rng.Int63n(int64(10 * time.Second))),
			Delivered: rng.Float64(),
		})
	}
	return t
}

func TestObjectiveMonotoneRebuffer(t *testing.T) {
	ladder := arenaLadder()
	obj := DefaultObjective(ladder, dash.TestVideos[0])
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		tr := randTrace(rng, ladder)
		if len(tr.Chunks) == 0 {
			continue
		}
		before := obj.Score(tr).Total
		i := rng.Intn(len(tr.Chunks))
		tr.Chunks[i].Rebuffer += time.Duration(rng.Int63n(int64(8 * time.Second)))
		after := obj.Score(tr).Total
		if after > before {
			t.Fatalf("trial %d: more rebuffer raised QoE: %.6f -> %.6f", trial, before, after)
		}
	}
}

func TestObjectiveMonotoneStartup(t *testing.T) {
	ladder := arenaLadder()
	obj := DefaultObjective(ladder, dash.TestVideos[0])
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		tr := randTrace(rng, ladder)
		before := obj.Score(tr).Total
		tr.Startup += time.Duration(rng.Int63n(int64(15 * time.Second)))
		after := obj.Score(tr).Total
		if after > before {
			t.Fatalf("trial %d: longer startup raised QoE: %.6f -> %.6f", trial, before, after)
		}
	}
}

func TestObjectiveMonotoneDelivered(t *testing.T) {
	ladder := arenaLadder()
	obj := DefaultObjective(ladder, dash.TestVideos[0])
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		tr := randTrace(rng, ladder)
		if len(tr.Chunks) == 0 {
			continue
		}
		before := obj.Score(tr).Total
		i := rng.Intn(len(tr.Chunks))
		d := tr.Chunks[i].Delivered + rng.Float64()*(1-tr.Chunks[i].Delivered)
		tr.Chunks[i].Delivered = d
		after := obj.Score(tr).Total
		if after < before-1e-9 {
			t.Fatalf("trial %d: higher delivered fraction lowered QoE: %.6f -> %.6f", trial, before, after)
		}
	}
}

// TestObjectiveMonotoneChunkQuality pins the conditional clause: with
// SmoothnessPenalty ≤ 1/2, EnergyPenalty == 0 and full delivery,
// upgrading one chunk to a higher-bitrate rung never lowers the total
// (the quality gain is ≥ the two smoothness deltas it can worsen).
func TestObjectiveMonotoneChunkQuality(t *testing.T) {
	ladder := arenaLadder()
	obj := &Objective{
		Quality:           NewQualityTable(ladder, 0, dash.Travel),
		StartupPenalty:    5,
		RebufferPenalty:   25,
		SmoothnessPenalty: 0.5,
		CrashPenalty:      100,
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		tr := randTrace(rng, ladder)
		if len(tr.Chunks) == 0 {
			continue
		}
		for i := range tr.Chunks {
			tr.Chunks[i].Delivered = 1
		}
		before := obj.Score(tr).Total
		i := rng.Intn(len(tr.Chunks))
		// Upgrade to any rung of ≥ bitrate (the log curve is monotone
		// in bitrate, so ≥ bitrate means ≥ perceptual quality).
		cand := make([]dash.Rung, 0, len(ladder))
		for _, r := range ladder {
			if r.Bitrate >= tr.Chunks[i].Rung.Bitrate {
				cand = append(cand, r)
			}
		}
		tr.Chunks[i].Rung = cand[rng.Intn(len(cand))]
		after := obj.Score(tr).Total
		if after < before-1e-9 {
			t.Fatalf("trial %d: upgrading chunk %d lowered QoE: %.6f -> %.6f", trial, i, before, after)
		}
	}
}

// TestObjectiveReorderInvariance pins the stated invariance: zero
// smoothness penalty plus an index-flat table makes the score a
// function of the chunk multiset, not the play order.
func TestObjectiveReorderInvariance(t *testing.T) {
	ladder := arenaLadder()
	obj := &Objective{
		Quality:           NewQualityTable(ladder, 0, dash.Travel), // flat: chunks == 0
		StartupPenalty:    5,
		RebufferPenalty:   25,
		SmoothnessPenalty: 0,
		DeliveredExponent: 2,
		CrashPenalty:      100,
		EnergyPenalty:     0.25,
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		tr := randTrace(rng, ladder)
		before := obj.Score(tr).Total
		shuffled := tr
		shuffled.Chunks = append([]Chunk(nil), tr.Chunks...)
		rng.Shuffle(len(shuffled.Chunks), func(i, j int) {
			shuffled.Chunks[i], shuffled.Chunks[j] = shuffled.Chunks[j], shuffled.Chunks[i]
		})
		after := obj.Score(shuffled).Total
		if diff := math.Abs(after - before); diff > 1e-9*(1+math.Abs(before)) {
			t.Fatalf("trial %d: reorder changed QoE: %.9f -> %.9f", trial, before, after)
		}
	}
}

// TestObjectiveReorderSensitiveWithSmoothness is the negative control:
// with a positive smoothness penalty, order must matter for at least
// some trace — otherwise the invariance test above proves nothing.
func TestObjectiveReorderSensitiveWithSmoothness(t *testing.T) {
	ladder := arenaLadder()
	obj := DefaultObjective(ladder, dash.TestVideos[0])
	low, high := ladder[0], ladder[len(ladder)-1]
	mk := func(rungs ...dash.Rung) Trace {
		tr := Trace{TotalChunks: len(rungs)}
		for i, r := range rungs {
			tr.Chunks = append(tr.Chunks, Chunk{Index: i, Rung: r, Duration: 4 * time.Second, Delivered: 1})
		}
		return tr
	}
	// low,low,high,high has one switch; low,high,low,high has three.
	calm := obj.Score(mk(low, low, high, high)).Total
	flappy := obj.Score(mk(low, high, low, high)).Total
	if !(flappy < calm) {
		t.Fatalf("flapping order should score below calm order: calm=%.4f flappy=%.4f", calm, flappy)
	}
}

func TestObjectiveBounds(t *testing.T) {
	ladder := arenaLadder()
	obj := DefaultObjective(ladder, dash.TestVideos[0])
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 300; trial++ {
		tr := randTrace(rng, ladder)
		got := obj.Score(tr).Total
		if best := obj.Best(); got > best+1e-9 {
			t.Fatalf("trial %d: QoE %.6f above analytic best %.6f", trial, got, best)
		}
	}
	// The lower bound is stated over the penalties-only family (no
	// smoothness/energy, which Worst does not model): any trace whose
	// startup and total rebuffer fit the caps scores at or above it.
	penOnly := &Objective{
		Quality:         NewQualityTable(ladder, 0, dash.Travel),
		StartupPenalty:  5,
		RebufferPenalty: 25,
		CrashPenalty:    100,
	}
	const startupCap, rebufferCap = 20 * time.Second, 40 * 10 * time.Second
	worst := penOnly.Worst(startupCap, rebufferCap)
	for trial := 0; trial < 300; trial++ {
		tr := randTrace(rng, ladder)
		got := penOnly.Score(tr).Total
		if got < worst-1e-9 {
			t.Fatalf("trial %d: QoE %.6f below analytic worst %.6f", trial, got, worst)
		}
	}
}

// TestObjectiveHostileWeights: NaN/Inf/negative weights must sanitize
// to finite scores, never poison the leaderboard.
func TestObjectiveHostileWeights(t *testing.T) {
	ladder := arenaLadder()
	nan := math.NaN()
	obj := &Objective{
		Quality:           NewQualityTable(ladder, 17, dash.Sports),
		StartupPenalty:    nan,
		RebufferPenalty:   math.Inf(1),
		SmoothnessPenalty: -3,
		DeliveredExponent: nan,
		CrashPenalty:      -1,
		EnergyPenalty:     math.Inf(1),
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		tr := randTrace(rng, ladder)
		tr.Chunks = append(tr.Chunks, Chunk{Index: -5, Rung: dash.Rung{}, Duration: -time.Second, Rebuffer: -time.Second, Delivered: nan})
		b := obj.Score(tr)
		for name, v := range map[string]float64{
			"Quality": b.Quality, "Startup": b.Startup, "Rebuffer": b.Rebuffer,
			"Smoothness": b.Smoothness, "Energy": b.Energy, "Crash": b.Crash, "Total": b.Total,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("trial %d: %s = %v with hostile weights", trial, name, v)
			}
		}
	}
}

// TestQualityTableCrossRungMonotone: sharing the per-chunk modulation
// across rungs must preserve "more bitrate is never worth less" at
// every chunk index.
func TestQualityTableCrossRungMonotone(t *testing.T) {
	ladder := arenaLadder()
	table := NewQualityTable(ladder, 45, dash.Sports)
	// The ladder is resolution-major, not bitrate-sorted (240p60 can
	// out-bitrate 360p24), so compare every bitrate-ordered pair.
	for i := 0; i < 45; i++ {
		for _, lo := range ladder {
			for _, hi := range ladder {
				if lo.Bitrate > hi.Bitrate {
					continue
				}
				if table.At(i, lo) > table.At(i, hi)+1e-12 {
					t.Fatalf("chunk %d: pq(%s)=%.4f > pq(%s)=%.4f", i, lo, table.At(i, lo), hi, table.At(i, hi))
				}
			}
		}
	}
}
