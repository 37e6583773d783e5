package abr

import (
	"testing"
	"time"

	"coalqoe/internal/dash"
	"coalqoe/internal/device"
	"coalqoe/internal/mempress"
	"coalqoe/internal/player"
	"coalqoe/internal/proc"
)

// playUnderPressure streams 1080p60 on a pressured Nokia 1 with the
// given algorithm (nil = fixed quality) and returns the metrics.
func playUnderPressure(t *testing.T, seed int64, algo Algorithm) player.Metrics {
	t.Helper()
	dev := device.New(seed, device.Nokia1, device.Options{})
	dev.Settle(3 * time.Second)
	reached := false
	mempress.Apply(dev, proc.Moderate, func() { reached = true })
	for !reached && dev.Clock.Now() < 3*time.Minute {
		dev.Settle(time.Second)
	}
	if !reached {
		t.Fatal("never reached Moderate")
	}

	video := dash.TestVideos[0]
	video.Duration = 60 * time.Second
	manifest := dash.NewManifest(video, 24, 30, 48, 60)
	rung, _ := manifest.Rung(dash.R1080p, 60)
	sess := player.Start(player.Config{
		Device: dev, Client: player.Firefox, Manifest: manifest, Rung: rung,
	})
	if algo != nil {
		Attach(sess, dev, algo, 2*time.Second)
	}
	deadline := dev.Clock.Now() + 5*time.Minute
	for sess.Active() && dev.Clock.Now() < deadline {
		dev.Settle(time.Second)
	}
	return sess.Metrics()
}

// TestMemoryAwareBeatsFixed is the §6 headline: reacting to memory
// pressure signals rescues playback that fixed quality cannot sustain.
func TestMemoryAwareBeatsFixed(t *testing.T) {
	fixed := playUnderPressure(t, 21, nil)
	// Fixed inner isolates the memory-reaction path: every switch is
	// a pressure step, so the fps-first order is observable.
	aware := playUnderPressure(t, 21, &MemoryAware{Inner: Fixed{}})

	if fixed.EffectiveDropRate < 40 {
		t.Fatalf("fixed 1080p60 at Moderate dropped only %.1f%%: pressure too weak for the comparison",
			fixed.EffectiveDropRate)
	}
	if aware.EffectiveDropRate > fixed.EffectiveDropRate/2 {
		t.Errorf("memory-aware drops %.1f%% vs fixed %.1f%%: want at least a 2x cut",
			aware.EffectiveDropRate, fixed.EffectiveDropRate)
	}
	if len(aware.Switches) == 0 {
		t.Error("memory-aware never switched")
	}
	// The first adaptation must be a frame-rate step, not resolution.
	first := aware.Switches[0]
	if first.To.Resolution != first.From.Resolution || first.To.FPS >= first.From.FPS {
		t.Errorf("first switch %v -> %v: §6 steps frame rate down first", first.From, first.To)
	}
}

// TestControllerSwitchesOnSignalDelivery checks the reactive path: a
// pressure signal triggers an immediate decision, not just the poll.
func TestControllerSwitchesOnSignalDelivery(t *testing.T) {
	dev := device.New(23, device.Nokia1, device.Options{})
	dev.Settle(3 * time.Second)

	video := dash.TestVideos[0]
	video.Duration = 90 * time.Second
	manifest := dash.NewManifest(video, 24, 30, 48, 60)
	rung, _ := manifest.Rung(dash.R720p, 60)
	sess := player.Start(player.Config{
		Device: dev, Client: player.Firefox, Manifest: manifest, Rung: rung,
	})
	// A long poll interval: only the signal path can act quickly.
	c := Attach(sess, dev, &MemoryAware{Inner: Fixed{}}, time.Hour)
	dev.Settle(5 * time.Second)
	if c.Switches != 0 {
		t.Fatalf("switched %d times before any pressure", c.Switches)
	}
	reached := false
	mempress.Apply(dev, proc.Moderate, func() { reached = true })
	for !reached && dev.Clock.Now() < 3*time.Minute {
		dev.Settle(time.Second)
	}
	dev.Settle(5 * time.Second)
	if sess.Active() && c.Switches == 0 {
		t.Error("no switch after Moderate signals despite the reactive path")
	}
}

// ladderRecorder holds the current rung and keeps the ladder of its
// first decision.
type ladderRecorder struct{ ladder []dash.Rung }

func (*ladderRecorder) Name() string { return "recorder" }

func (l *ladderRecorder) Decide(ctx Context) dash.Rung {
	if l.ladder == nil {
		l.ladder = ctx.Ladder
	}
	return ctx.Current
}

// TestControllerLadderKeepsManifestOrderOnTies pins the decision
// ladder's order: ascending bitrate, and rungs that tie on bitrate
// (240p60 and 360p30 both run at 1 Mbps) stay in manifest order.
func TestControllerLadderKeepsManifestOrderOnTies(t *testing.T) {
	dev := device.New(5, device.Nexus6P, device.Options{})
	video := dash.TestVideos[0]
	video.Duration = 20 * time.Second
	manifest := dash.NewManifest(video, 24, 30, 48, 60)
	rung, _ := manifest.Rung(dash.R480p, 30)
	sess := player.Start(player.Config{
		Device: dev, Client: player.Firefox, Manifest: manifest, Rung: rung,
	})
	rec := &ladderRecorder{}
	Attach(sess, dev, rec, 2*time.Second)
	dev.Settle(5 * time.Second)
	if len(rec.ladder) != len(manifest.Rungs) {
		t.Fatalf("decision ladder has %d rungs, manifest %d", len(rec.ladder), len(manifest.Rungs))
	}
	pos := map[dash.Rung]int{}
	for i, r := range manifest.Rungs {
		pos[r] = i
	}
	for i := 1; i < len(rec.ladder); i++ {
		a, b := rec.ladder[i-1], rec.ladder[i]
		if a.Bitrate > b.Bitrate || (a.Bitrate == b.Bitrate && pos[a] > pos[b]) {
			t.Errorf("ladder[%d..%d] = %v, %v: want ascending bitrate, ties in manifest order", i-1, i, a, b)
		}
	}
	// The pair the check above is about must still tie.
	p60, _ := dash.FindRung(rec.ladder, dash.R240p, 60)
	p30, _ := dash.FindRung(rec.ladder, dash.R360p, 30)
	if p60.Bitrate != p30.Bitrate || pos[p60] > pos[p30] {
		t.Fatalf("240p60 (%v, manifest #%d) and 360p30 (%v, #%d) no longer tie in that order",
			p60.Bitrate, pos[p60], p30.Bitrate, pos[p30])
	}
}
