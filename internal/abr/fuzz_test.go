package abr

import (
	"math"
	"testing"
	"time"

	"coalqoe/internal/dash"
	"coalqoe/internal/proc"
	"coalqoe/internal/units"
)

// FuzzMPCDecide drives both QoE-optimizing controllers through an
// arbitrary sequence of observations and holds the ladder-membership
// invariant: whatever the context claims — zero or infinite
// throughput, hostile drop rates, an off-manifest current rung — every
// decision over a non-empty ladder must be a rung of that ladder, and
// the decision path must stay panic-free. Each 8-byte record of the
// fuzz input is one observation; state carries across the sequence, so
// the fuzzer also explores risk-tracker and sample-window histories.
func FuzzMPCDecide(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	// Calm high throughput, then a pressure storm, then recovery.
	f.Add([]byte{
		100, 60, 0, 0, 0, 23, 2, 0,
		100, 10, 3, 90, 1, 23, 2, 0,
		100, 60, 0, 0, 60, 23, 2, 0,
	})
	// Throughput collapse with an off-ladder current rung.
	f.Add([]byte{0, 0, 2, 50, 1, 255, 40, 1})
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, raw []byte) {
		ladder := dash.Ladder(24, 30, 48, 60)
		onLadder := func(r dash.Rung) bool {
			for _, l := range ladder {
				if l == r {
					return true
				}
			}
			return false
		}
		mpc := &MPC{}
		qa := &QoEAware{}
		now := time.Duration(0)
		cur := ladder[len(ladder)-1]
		curQA := cur
		for i := 0; i+7 < len(raw) && i < 8*64; i += 8 {
			rec := raw[i : i+8]
			now += time.Duration(rec[7]%8)*time.Second + 100*time.Millisecond
			ctx := Context{
				Now:            now,
				Current:        cur,
				Ladder:         ladder,
				Buffer:         time.Duration(rec[1]) * time.Second,
				Throughput:     units.BitsPerSecond(rec[0]) * units.Mbps / 4,
				Signal:         proc.Level(rec[2] % 5),
				SignalAge:      time.Duration(rec[4]) * time.Second,
				RecentDropRate: float64(rec[3]),
			}
			if rec[5] == 255 {
				// Off-manifest current rung: the decision must clamp.
				ctx.Current = dash.Rung{Resolution: dash.R1080p, FPS: 25, Bitrate: 9 * units.Mbps}
			}
			if rec[6]%3 == 0 {
				// Hostile float fields.
				ctx.RecentDropRate = math.Inf(1)
			}
			got := mpc.Decide(ctx)
			if !onLadder(got) {
				t.Fatalf("record %d: MPC decided off-ladder rung %v", i/8, got)
			}
			cur = got

			ctx.Current = curQA
			if rec[5] == 255 {
				ctx.Current = dash.Rung{Resolution: dash.R1080p, FPS: 25, Bitrate: 9 * units.Mbps}
			}
			gotQA := qa.Decide(ctx)
			if !onLadder(gotQA) {
				t.Fatalf("record %d: QoEAware decided off-ladder rung %v", i/8, gotQA)
			}
			curQA = gotQA
		}

		// Empty-ladder contract: hold whatever the session reports.
		empty := Context{Now: now, Current: cur}
		if got := mpc.Decide(empty); got != cur {
			t.Fatalf("MPC on empty ladder moved %v -> %v", cur, got)
		}
		if got := qa.Decide(Context{Now: now, Current: curQA}); got != curQA {
			t.Fatalf("QoEAware on empty ladder moved %v -> %v", curQA, got)
		}
	})
}
