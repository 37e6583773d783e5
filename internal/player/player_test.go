package player

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"coalqoe/internal/dash"
	"coalqoe/internal/device"
	"coalqoe/internal/netem"
	"coalqoe/internal/units"
)

func shortVideo(d time.Duration) dash.Video {
	v := dash.TestVideos[0]
	v.Duration = d
	return v
}

func startSession(t *testing.T, dev *device.Device, res dash.Resolution, fps int, dur time.Duration, mod func(*Config)) *Session {
	t.Helper()
	manifest := dash.NewManifest(shortVideo(dur), 24, 30, 48, 60)
	rung, ok := manifest.Rung(res, fps)
	if !ok {
		t.Fatalf("no rung %v@%d", res, fps)
	}
	cfg := Config{Device: dev, Client: Firefox, Manifest: manifest, Rung: rung}
	if mod != nil {
		mod(&cfg)
	}
	return Start(cfg)
}

func TestSessionCompletesCleanly(t *testing.T) {
	dev := device.New(1, device.Nexus6P, device.Options{})
	dev.Settle(2 * time.Second)
	s := startSession(t, dev, dash.R240p, 30, 30*time.Second, nil)
	dev.Settle(60 * time.Second)
	if s.Active() {
		t.Fatal("session still active after twice the video duration")
	}
	m := s.Metrics()
	if m.Crashed {
		t.Fatal("crashed on an idle 3 GB device")
	}
	total := m.FramesRendered + m.FramesDropped
	want := 30 * 30 // 30s at 30fps
	if total < want-30 || total > want+30 {
		t.Errorf("presented %d frames, want ~%d", total, want)
	}
	if m.DropRate > 3 {
		t.Errorf("drop rate %.1f%% on an idle flagship at 240p30", m.DropRate)
	}
}

func TestVideoHeapMonotone(t *testing.T) {
	for _, c := range []ClientProfile{Firefox, Chrome, ExoPlayer} {
		var prev units.Bytes
		for _, r := range dash.Resolutions {
			h := c.VideoHeap(dash.Rung{Resolution: r, FPS: 30})
			if h < prev {
				t.Errorf("%s heap not monotone in resolution at %v", c.Name, r)
			}
			prev = h
			h60 := c.VideoHeap(dash.Rung{Resolution: r, FPS: 60})
			if h60 <= h {
				t.Errorf("%s 60fps heap not larger at %v", c.Name, r)
			}
		}
	}
}

func TestClientFootprintOrdering(t *testing.T) {
	rung := dash.Rung{Resolution: dash.R1080p, FPS: 60}
	ff := Firefox.BasePSS + Firefox.VideoHeap(rung)
	cr := Chrome.BasePSS + Chrome.VideoHeap(rung)
	exo := ExoPlayer.BasePSS + ExoPlayer.VideoHeap(rung)
	if !(ff > cr && cr > exo) {
		t.Errorf("footprint ordering wrong: firefox=%v chrome=%v exoplayer=%v (App. B: firefox heaviest)", ff, cr, exo)
	}
}

func TestDecodeCostScaling(t *testing.T) {
	r720 := dash.Rung{Resolution: dash.R720p, FPS: 30}
	r1080 := dash.Rung{Resolution: dash.R1080p, FPS: 30}
	if Firefox.DecodeCost(r1080, dash.Travel) <= Firefox.DecodeCost(r720, dash.Travel) {
		t.Error("decode cost not increasing with resolution")
	}
	if Firefox.DecodeCost(r720, dash.Gaming) <= Firefox.DecodeCost(r720, dash.News) {
		t.Error("genre complexity not applied")
	}
}

func TestBufferCapAndDrain(t *testing.T) {
	dev := device.New(2, device.Nexus6P, device.Options{})
	dev.Settle(2 * time.Second)
	s := startSession(t, dev, dash.R480p, 30, 3*time.Minute, nil)
	dev.Settle(40 * time.Second)
	// One 4 s segment may land past the cap.
	if got := s.BufferLevel(); got > BufferCapacity+4*time.Second {
		t.Errorf("buffer level %v exceeds the %v capacity", got, BufferCapacity)
	}
	if got := s.BufferLevel(); got < BufferCapacity/2 {
		t.Errorf("buffer level %v never filled on a LAN", got)
	}
}

func TestSlowLinkStallsWithoutDrops(t *testing.T) {
	dev := device.New(3, device.Nexus6P, device.Options{})
	dev.Settle(2 * time.Second)
	// 1 Mbps link for a 2.5 Mbps stream: playback must stall, and
	// stalls are rebuffering, not frame drops.
	link := netem.NewLink(dev.Clock, 1*units.Mbps, 10*time.Millisecond)
	s := startSession(t, dev, dash.R480p, 30, 30*time.Second, func(c *Config) {
		c.Link = link
	})
	deadline := dev.Clock.Now() + 5*time.Minute
	for s.Active() && dev.Clock.Now() < deadline {
		dev.Settle(5 * time.Second)
	}
	m := s.Metrics()
	if m.Stalls == 0 {
		t.Error("no stalls on an underprovisioned link")
	}
	if m.DropRate > 5 {
		t.Errorf("drop rate %.1f%%: network shortage must stall, not drop", m.DropRate)
	}
}

func TestSwitchRungTakesEffect(t *testing.T) {
	dev := device.New(4, device.Nexus6P, device.Options{})
	dev.Settle(2 * time.Second)
	s := startSession(t, dev, dash.R1080p, 60, time.Minute, nil)
	dev.Settle(10 * time.Second)
	to, _ := s.Manifest().Rung(dash.R480p, 24)
	s.SwitchRung(to)
	dev.Settle(10 * time.Second)
	if s.Rung() != to {
		t.Fatalf("rung = %v after switch, want %v", s.Rung(), to)
	}
	m := s.Metrics()
	if len(m.Switches) != 1 || m.Switches[0].To != to {
		t.Errorf("switch events = %+v", m.Switches)
	}
	// Playback continues at the new cadence.
	before := s.Metrics().FramesRendered
	dev.Settle(10 * time.Second)
	gained := s.Metrics().FramesRendered - before
	if gained < 180 || gained > 260 {
		t.Errorf("rendered %d frames in 10s at 24fps, want ~240", gained)
	}
}

func TestSwitchToSameRungIsNoop(t *testing.T) {
	dev := device.New(5, device.Nexus6P, device.Options{})
	dev.Settle(2 * time.Second)
	s := startSession(t, dev, dash.R480p, 30, 30*time.Second, nil)
	dev.Settle(5 * time.Second)
	s.SwitchRung(s.Rung())
	dev.Settle(5 * time.Second)
	if n := len(s.Metrics().Switches); n != 0 {
		t.Errorf("%d switch events for a same-rung request", n)
	}
}

func TestCrashMetrics(t *testing.T) {
	dev := device.New(6, device.Nokia1, device.Options{})
	dev.Settle(2 * time.Second)
	s := startSession(t, dev, dash.R480p, 30, 2*time.Minute, nil)
	finished := false
	s.OnFinish(func() { finished = true })
	dev.Settle(20 * time.Second)
	// Kill the client the way lmkd would.
	dev.Table.Kill(dev.Table.Find(Firefox.Name), "test kill")
	if !s.Crashed() || s.Active() {
		t.Fatal("session did not register the kill")
	}
	if !finished {
		t.Error("OnFinish not called on crash")
	}
	m := s.Metrics()
	if !m.Crashed || m.CrashedAt == 0 {
		t.Errorf("metrics = %+v", m)
	}
	// The unplayed remainder counts as lost.
	if m.EffectiveDropRate < 50 {
		t.Errorf("EffectiveDropRate = %.1f%% for a session crashed at ~15s of 120s", m.EffectiveDropRate)
	}
	if m.EffectiveDropRate < m.DropRate {
		t.Error("effective drop rate must dominate the raw rate for crashes")
	}
}

func TestCrashAtTimeZero(t *testing.T) {
	// Regression: a kill at sim time zero is a legitimate crash, and
	// CrashedAt == 0 must not read as "did not crash". Crashed is the
	// sole source of truth; the JSON encoding must still emit the
	// timestamp (as a pointer, so zero survives omitempty).
	dev := device.New(13, device.Nokia1, device.Options{})
	s := startSession(t, dev, dash.R480p, 30, time.Minute, nil)
	dev.Table.Kill(dev.Table.Find(Firefox.Name), "test kill")
	m := s.Metrics()
	if !m.Crashed {
		t.Fatal("kill at t=0 not recorded as a crash")
	}
	if m.CrashedAt != 0 {
		t.Errorf("CrashedAt = %v, want 0", m.CrashedAt)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if v, ok := back["crashed_at_sec"]; !ok || v != 0.0 {
		t.Errorf("crashed_at_sec = %v (present=%v), want 0 to survive marshalling", v, ok)
	}
	// And the inverse: an uncrashed session must not emit the field.
	clean, _ := json.Marshal(Metrics{Device: "d", Client: "c"})
	if bytes.Contains(clean, []byte("crashed_at_sec")) {
		t.Errorf("uncrashed metrics leaked crashed_at_sec: %s", clean)
	}
}

func TestRecoveryRestartsAndResumes(t *testing.T) {
	// On an otherwise idle flagship a single injected kill is the only
	// adversity: a recovering session must relaunch, re-fetch the
	// manifest, resume from the boundary, and finish the clip.
	dev := device.New(14, device.Nexus6P, device.Options{})
	dev.Settle(2 * time.Second)
	s := startSession(t, dev, dash.R480p, 30, time.Minute, func(c *Config) {
		c.Recover = true
	})
	dev.Settle(20 * time.Second)
	dev.Table.Kill(dev.Table.Find(Firefox.Name), "test kill")
	if !s.Recovering() {
		t.Fatal("session not recovering after a kill with Recover set")
	}
	if s.Crashed() {
		t.Fatal("recoverable kill marked as terminal crash")
	}
	deadline := dev.Clock.Now() + 5*time.Minute
	for s.Active() && dev.Clock.Now() < deadline {
		dev.Settle(5 * time.Second)
	}
	if s.Active() {
		t.Fatal("recovering session never finished")
	}
	m := s.Metrics()
	if m.Crashed {
		t.Fatalf("session crashed instead of recovering: %v", m)
	}
	if m.Restarts < 1 {
		t.Errorf("Restarts = %d, want >= 1", m.Restarts)
	}
	if m.TimeToRecover <= 0 {
		t.Errorf("TimeToRecover = %v, want > 0", m.TimeToRecover)
	}
	// Recovery includes the 2s cold start plus manifest re-fetch and
	// buffer refill; anything under the cold start is bookkeeping error.
	if m.TimeToRecover < 2*time.Second {
		t.Errorf("TimeToRecover = %v, below the cold-start floor", m.TimeToRecover)
	}
	// The clip still played to the end: the unplayed remainder must not
	// be charged as effective drops.
	if m.EffectiveDropRate > 50 {
		t.Errorf("EffectiveDropRate = %.1f%% for a recovered session", m.EffectiveDropRate)
	}
}

func TestRecoveryMaxRestartsTerminal(t *testing.T) {
	// Each of the first maxRestarts kills is recovered; the next one is
	// terminal.
	dev := device.New(15, device.Nexus6P, device.Options{})
	dev.Settle(2 * time.Second)
	s := startSession(t, dev, dash.R480p, 30, 3*time.Minute, func(c *Config) {
		c.Recover = true
	})
	dev.Settle(10 * time.Second)
	for i := 1; i <= maxRestarts; i++ {
		dev.Table.Kill(dev.Table.Find(Firefox.Name), "test kill")
		dev.Settle(20 * time.Second) // cold start + refill, playing again
		if s.Crashed() {
			t.Fatalf("kill %d of %d should be recoverable", i, maxRestarts)
		}
	}
	dev.Table.Kill(dev.Table.Find(Firefox.Name), "last kill")
	m := s.Metrics()
	if !m.Crashed {
		t.Fatal("kill beyond maxRestarts must be terminal")
	}
	if m.Restarts != maxRestarts {
		t.Errorf("Restarts = %d, want %d", m.Restarts, maxRestarts)
	}
}

func TestRecentDropRate(t *testing.T) {
	dev := device.New(7, device.Nokia1, device.Options{})
	dev.Settle(2 * time.Second)
	// 1080p60 overloads the Nokia 1 even at Normal: recent drop rate
	// must be clearly nonzero.
	s := startSession(t, dev, dash.R1080p, 60, time.Minute, nil)
	dev.Settle(30 * time.Second)
	if got := s.RecentDropRate(5); got < 10 {
		t.Errorf("RecentDropRate = %.1f%% at 1080p60 on a Nokia 1", got)
	}
}

func TestDeterministicSessions(t *testing.T) {
	run := func() Metrics {
		dev := device.New(42, device.Nokia1, device.Options{})
		dev.Settle(2 * time.Second)
		s := startSession(t, dev, dash.R720p, 60, 30*time.Second, nil)
		dev.Settle(90 * time.Second)
		return s.Metrics()
	}
	a, b := run(), run()
	if a.FramesRendered != b.FramesRendered || a.FramesDropped != b.FramesDropped {
		t.Errorf("sessions diverged across identical seeds: %v vs %v", a, b)
	}
}

func TestPSSSampling(t *testing.T) {
	dev := device.New(8, device.Nexus5, device.Options{})
	dev.Settle(2 * time.Second)
	s := startSession(t, dev, dash.R1080p, 30, 30*time.Second, nil)
	dev.Settle(60 * time.Second)
	m := s.Metrics()
	if m.PeakPSS == 0 || m.MeanPSS == 0 {
		t.Fatal("no PSS samples")
	}
	if m.PeakPSS < m.MeanPSS || m.MeanPSS < m.MinPSS {
		t.Errorf("PSS ordering broken: min=%v mean=%v peak=%v", m.MinPSS, m.MeanPSS, m.PeakPSS)
	}
	// 1080p Firefox should sit in the multi-hundred-MiB range (§4.2).
	if m.PeakPSS < 250*units.MiB || m.PeakPSS > 600*units.MiB {
		t.Errorf("peak PSS = %v, want a few hundred MiB", m.PeakPSS)
	}
}

func TestMetricsString(t *testing.T) {
	m := Metrics{Device: "d", Client: "c", DropRate: 12.5, Crashed: true, CrashedAt: 9 * time.Second}
	if s := m.String(); s == "" {
		t.Error("empty metrics string")
	}
}

func TestSingleRungManifest(t *testing.T) {
	dev := device.New(9, device.Nexus6P, device.Options{})
	dev.Settle(2 * time.Second)
	manifest := dash.NewManifest(shortVideo(20*time.Second), 30)
	rung, ok := manifest.Rung(dash.R480p, 30)
	if !ok {
		t.Fatal("no 480p30 in a 30fps ladder")
	}
	s := Start(Config{Device: dev, Client: ExoPlayer, Manifest: manifest, Rung: rung})
	dev.Settle(60 * time.Second)
	if s.Active() || s.Crashed() {
		t.Errorf("session state: active=%v crashed=%v", s.Active(), s.Crashed())
	}
}

func TestVeryShortVideo(t *testing.T) {
	dev := device.New(10, device.Nexus6P, device.Options{})
	dev.Settle(2 * time.Second)
	s := startSession(t, dev, dash.R240p, 24, 4*time.Second, nil) // one segment
	dev.Settle(30 * time.Second)
	if s.Active() {
		t.Fatal("one-segment video never finished")
	}
	m := s.Metrics()
	total := m.FramesRendered + m.FramesDropped
	if total < 80 || total > 110 {
		t.Errorf("presented %d frames for 4s at 24fps, want ~96", total)
	}
}

func TestMidSessionLinkCollapse(t *testing.T) {
	dev := device.New(11, device.Nexus6P, device.Options{})
	dev.Settle(2 * time.Second)
	link := netem.NewLink(dev.Clock, 100*units.Mbps, 5*time.Millisecond)
	s := startSession(t, dev, dash.R480p, 30, 2*time.Minute, func(c *Config) {
		c.Link = link
	})
	// Collapse the link after 10s: the buffer holds at most
	// BufferCapacity of the two-minute video, and 1 Mbps cannot fetch
	// the rest of a 2.5 Mbps stream before it drains, so the session
	// must rebuffer rather than drop.
	dev.Clock.Schedule(10*time.Second, func() { link.SetRate(1 * units.Mbps) })
	deadline := dev.Clock.Now() + 20*time.Minute
	for s.Active() && dev.Clock.Now() < deadline {
		dev.Settle(10 * time.Second)
	}
	m := s.Metrics()
	if m.Stalls == 0 {
		t.Error("no rebuffering after link collapse")
	}
	if m.DropRate > 5 {
		t.Errorf("drop rate %.1f%% from a network problem", m.DropRate)
	}
}

func TestMetricsJSON(t *testing.T) {
	dev := device.New(12, device.Nexus6P, device.Options{})
	dev.Settle(2 * time.Second)
	s := startSession(t, dev, dash.R480p, 30, 12*time.Second, nil)
	dev.Settle(40 * time.Second)
	data, err := json.Marshal(s.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"device", "client", "rung", "frames_rendered", "fps_timeline", "mean_pss_mib"} {
		if _, ok := back[key]; !ok {
			t.Errorf("JSON missing %q: %s", key, data)
		}
	}
	if back["device"] != "Nexus 6P" {
		t.Errorf("device = %v", back["device"])
	}
}

func TestChunkTraceCleanSession(t *testing.T) {
	dev := device.New(14, device.Nexus6P, device.Options{})
	dev.Settle(2 * time.Second)
	s := startSession(t, dev, dash.R240p, 30, 32*time.Second, nil)
	dev.Settle(70 * time.Second)
	if s.Active() {
		t.Fatal("session still active")
	}
	m := s.Metrics()
	segs := int(32 * time.Second / shortVideo(0).SegmentDuration)
	if len(m.Chunks) != segs {
		t.Fatalf("recorded %d chunks, want %d", len(m.Chunks), segs)
	}
	if m.StartupDelay <= 0 {
		t.Errorf("StartupDelay = %v, want > 0 (buffer fill takes time)", m.StartupDelay)
	}
	var rebuf time.Duration
	rendered, dropped := 0, 0
	for i, c := range m.Chunks {
		if c.Index != i {
			t.Errorf("chunk %d has index %d (no recovery happened)", i, c.Index)
		}
		if c.Duration != shortVideo(0).SegmentDuration {
			t.Errorf("chunk %d duration %v", i, c.Duration)
		}
		if c.Rung != m.Rung {
			t.Errorf("chunk %d rung %v, want %v (no switches)", i, c.Rung, m.Rung)
		}
		if c.Rebuffer < 0 || c.Rendered < 0 || c.Dropped < 0 {
			t.Errorf("chunk %d has negative fields: %+v", i, c)
		}
		rebuf += c.Rebuffer
		rendered += c.Rendered
		dropped += c.Dropped
	}
	if rebuf > m.StallTime {
		t.Errorf("chunk rebuffer sum %v exceeds session StallTime %v", rebuf, m.StallTime)
	}
	// Every presented frame belongs to some chunk (the final vsync that
	// ends playback may present at most one frame past the last record).
	if rendered+dropped < m.FramesRendered+m.FramesDropped-1 {
		t.Errorf("chunks account %d frames, session presented %d",
			rendered+dropped, m.FramesRendered+m.FramesDropped)
	}
}

func TestChunkTraceSkipsLostSegmentOnRecovery(t *testing.T) {
	// Force a mid-playback kill with recovery: the partial segment at
	// the playhead is lost, so the chunk indices must show a gap, not a
	// renumbering, and post-recovery records must not inherit the lost
	// chunk's counters.
	dev := device.New(15, device.Nexus6P, device.Options{})
	dev.Settle(2 * time.Second)
	s := startSession(t, dev, dash.R240p, 30, 40*time.Second, func(c *Config) {
		c.Recover = true
	})
	killed := false
	dev.Clock.Schedule(10*time.Second, func() {
		if s.Active() {
			killed = true
			dev.Table.Kill(dev.Table.Find(Firefox.Name), "test kill")
		}
	})
	deadline := dev.Clock.Now() + 3*time.Minute
	for s.Active() && dev.Clock.Now() < deadline {
		dev.Settle(time.Second)
	}
	if !killed {
		t.Skip("session ended before the kill fired")
	}
	m := s.Metrics()
	if m.Restarts == 0 {
		t.Fatal("kill did not trigger a recovery")
	}
	for i := 1; i < len(m.Chunks); i++ {
		if m.Chunks[i].Index <= m.Chunks[i-1].Index {
			t.Errorf("chunk indices not strictly increasing: %d then %d",
				m.Chunks[i-1].Index, m.Chunks[i].Index)
		}
	}
	// At least one boundary must have skipped the lost partial segment.
	gap := false
	last := -1
	for _, c := range m.Chunks {
		if last >= 0 && c.Index > last+1 {
			gap = true
		}
		last = c.Index
	}
	if !gap && len(m.Chunks) > 0 && m.Chunks[0].Index == 0 {
		t.Logf("chunks: %+v", m.Chunks)
		t.Error("recovery left no index gap: lost partial segment was replayed?")
	}
}

// TestSegmentTimeoutRetrySchedule plays through a 25 s outage that
// starts at launch, with a 1 s segment timeout. Each attempt waits the
// timeout, then the backoff: 500 ms doubling per abandoned attempt up
// to the 8 s cap. Relative to launch, attempts start at
//
//	0, 1.5, 3.5, 6.5, 11.5, 20.5 (backoffs 0.5, 1, 2, 4, 8 s)
//
// and all six are abandoned, since the link delivers nothing before
// 25 s. The seventh starts at 29.5 s (the capped 8 s backoff, not 16 s)
// on an idle link and lands one transfer plus the link delay later,
// 4.5 s + tx + delay after the outage ends.
func TestSegmentTimeoutRetrySchedule(t *testing.T) {
	const delay = 10 * time.Millisecond
	dev := device.New(1, device.Nexus6P, device.Options{})
	dev.Settle(2 * time.Second)
	// 8 Mbps moves one byte per microsecond.
	link := netem.NewLink(dev.Clock, 8*units.Mbps, delay)
	link.OutageFor(25 * time.Second)
	launch := dev.Clock.Now()
	s := startSession(t, dev, dash.R240p, 30, 20*time.Second, func(c *Config) {
		c.Link = link
		c.SegmentTimeout = time.Second
	})
	bytes := s.cfg.Manifest.Video.SegmentBytes(s.cfg.Rung, 0)
	tx := time.Duration(bytes) * time.Microsecond
	landed := launch + 29500*time.Millisecond + tx + delay

	dev.Clock.RunUntil(landed - 1)
	if s.retries != 6 || s.throughput != 0 {
		t.Fatalf("just before %v: %d retries, throughput %v; want 6 abandoned attempts and no delivery",
			landed-launch, s.retries, s.throughput)
	}
	dev.Clock.RunUntil(landed)
	if want := units.BitsPerSecond(float64(bytes*8) / (tx + delay).Seconds()); s.throughput != want {
		t.Fatalf("at %v: throughput %v, want the seventh attempt delivered (%v)", landed-launch, s.throughput, want)
	}

	deadline := dev.Clock.Now() + time.Minute
	for s.Active() && dev.Clock.Now() < deadline {
		dev.Settle(5 * time.Second)
	}
	m := s.Metrics()
	if s.Active() || m.Crashed {
		t.Fatalf("session did not finish cleanly (active %v, crashed %v)", s.Active(), m.Crashed)
	}
	if m.Retries != 6 {
		t.Errorf("Retries = %d, want 6: no attempt after the outage may time out", m.Retries)
	}
	if m.StartupDelay < landed-launch {
		t.Errorf("StartupDelay = %v, before the first segment landed at %v", m.StartupDelay, landed-launch)
	}
}
