package main

import (
	"fmt"
	"time"

	"coalqoe/internal/abr"
	"coalqoe/internal/dash"
	"coalqoe/internal/device"
	"coalqoe/internal/exp"
	"coalqoe/internal/faults"
	"coalqoe/internal/netem"
	"coalqoe/internal/player"
	"coalqoe/internal/qoe"
	"coalqoe/internal/units"
)

// Arena link: the 12 Mbps / 25 ms bottleneck the ABR arena plays over,
// so the attached rules have a network that can bind.
const (
	arenaRate  = 12 * units.Mbps
	arenaDelay = 25 * time.Millisecond
	bootSettle = 3 * time.Second // exp.Run's default boot Settle
)

// sessionVideo is the content every session plays: the travel video
// cut to a 60 s clip.
func sessionVideo() dash.Video {
	v := dash.TestVideos[0]
	v.Duration = 60 * time.Second
	return v
}

func newAlgo(name string) abr.Algorithm {
	switch name {
	case "mpc":
		return &abr.MPC{}
	case "memopt":
		return &abr.QoEAware{}
	case "bola":
		return abr.BOLA{}
	}
	panic("perfbench: unknown ABR rule " + name)
}

// timedAlgo is the traced pass's decorator around an ABR rule: it
// times every Decide call without changing its answer.
type timedAlgo struct {
	inner abr.Algorithm
	l     *sessionLayers
	tr    *Tracer
	op    int
	span  int
}

func (a *timedAlgo) Name() string { return a.inner.Name() }

func (a *timedAlgo) Decide(ctx abr.Context) dash.Rung {
	t0 := time.Now()
	r := a.inner.Decide(ctx)
	t1 := time.Now()
	a.l.decide += t1.Sub(t0)
	a.l.decisions++
	a.tr.Add(a.op, a.span, "abr.decide", t0, t1)
	return r
}

// sessionLayers accumulates the traced pass's per-layer figures.
type sessionLayers struct {
	sessions                        int
	boot, ramp, play, decide, score time.Duration
	simPlay                         time.Duration
	decisions                       int64
	kswapd, lmkd, mmcqd             time.Duration
	ioRequests, swapins, preempts   int64
	crashes, dropped                int64
}

// sessionWorkload drives session-clean and session-pressure: each op
// is one exp.Run of a roster cell (plus a qoe.Objective score when an
// ABR rule is attached).
type sessionWorkload struct {
	seed   int64
	ops    int
	base   []Cell
	score  bool
	roster []Cell
	warm   []Cell
	video  dash.Video
	obj    *qoe.Objective
	fp     *Fingerprint
	l      sessionLayers
}

const sessionWarmup = 12 // sessions played in each set-up

func newSessionWorkload(seed int64, ops int, pressure bool) *sessionWorkload {
	w := &sessionWorkload{seed: seed, ops: ops, base: cleanBase(), score: true}
	if pressure {
		w.base, w.score = pressureBase(), false
	}
	return w
}

func (w *sessionWorkload) Ops() int { return len(w.roster) }

// Setup builds the roster and the objective, then plays a fixed
// warm-up of sessionWarmup sessions from the seed-0 roster, so it is
// the same work at every seed.
func (w *sessionWorkload) Setup() error {
	w.roster = Roster(w.seed, w.base, w.ops)
	w.warm = Roster(0, w.base, sessionWarmup)
	w.video = sessionVideo()
	w.obj = qoe.DefaultObjective(dash.Ladder(dash.StandardFPS...), w.video)
	w.fp = newFingerprint()
	for _, c := range w.warm {
		if err := w.play(c, -1, nil); err != nil {
			return fmt.Errorf("warm-up %s: %w", c, err)
		}
	}
	w.fp = newFingerprint()
	w.l = sessionLayers{}
	return nil
}

func (w *sessionWorkload) Op(i int, tr *Tracer) error { return w.play(w.roster[i], i, tr) }

func (w *sessionWorkload) videoRun(c Cell) exp.VideoRun {
	vr := exp.VideoRun{
		Seed: c.Seed, Profile: c.Profile, Video: w.video,
		Resolution: c.Resolution, FPS: c.FPS, Pressure: c.Pressure,
		KeepDevice: true, // so play can read the device's counters
	}
	if c.Storm {
		spec := faults.MemStorm()
		vr.Faults = &spec
	}
	if c.Algo != "" {
		vr.PlayerTweaks = func(pc *player.Config) {
			pc.Link = netem.NewLink(pc.Device.Clock, arenaRate, arenaDelay)
		}
		vr.OnSession = func(s *player.Session, dev *device.Device) {
			abr.Attach(s, dev, newAlgo(c.Algo), 2*time.Second)
		}
	}
	return vr
}

// play runs one session, checks it and folds it into the fingerprint.
func (w *sessionWorkload) play(c Cell, op int, tr *Tracer) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	vr := w.videoRun(c)
	var res exp.Result
	var b qoe.Breakdown
	if tr == nil {
		res = exp.Run(vr)
		if w.score {
			b = w.obj.Score(qoe.TraceFrom(res.Metrics, w.video))
		}
	} else {
		res, b = w.traced(c, vr, op, tr)
	}
	m := res.Metrics
	switch {
	case res.Failed:
		return fmt.Errorf("%s: failed: %s", c, res.FailReason)
	case !res.PressureReached:
		return fmt.Errorf("%s: pressure regime not reached", c)
	case m.FramesRendered == 0 && !m.Crashed:
		return fmt.Errorf("%s: no frames rendered and no crash", c)
	case res.Device == nil:
		return fmt.Errorf("%s: device not kept", c)
	}
	dc := readCounts(res.Device)
	w.fp.Add(int64(m.FramesRendered), int64(m.FramesDropped), int64(m.CrashedAt), b2i(m.Crashed),
		int64(m.Stalls), int64(m.StallTime), int64(m.StartupDelay), int64(len(m.Switches)), int64(len(m.Chunks)),
		int64(dc.kswapd), int64(dc.lmkd), int64(dc.mmcqd), dc.ioRequests, dc.swapins, dc.preempts)
	w.fp.AddFloat(b.Total)
	if tr != nil {
		l := &w.l
		l.kswapd += dc.kswapd
		l.lmkd += dc.lmkd
		l.mmcqd += dc.mmcqd
		l.ioRequests += dc.ioRequests
		l.swapins += dc.swapins
		l.preempts += dc.preempts
		l.crashes += b2i(m.Crashed)
		l.dropped += int64(m.FramesDropped)
	}
	return nil
}

// deviceCounts are the exact simulated counts of one session's device:
// simulated CPU of the reclaim and storage threads, block requests,
// swap-ins and scheduler preemptions.
type deviceCounts struct {
	kswapd, lmkd, mmcqd           time.Duration
	ioRequests, swapins, preempts int64
}

func readCounts(dev *device.Device) deviceCounts {
	ds := dev.Disk.Stats()
	return deviceCounts{
		kswapd:     dev.Kswapd.Thread().CPUTime(),
		lmkd:       dev.Lmkd.Thread().CPUTime(),
		mmcqd:      dev.Disk.Thread().CPUTime(),
		ioRequests: int64(ds.ReadRequests + ds.WriteRequests),
		swapins:    int64(dev.Mem.SwapIns()),
		preempts:   dev.Sched.Preemptions(),
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// traced runs the same calls as the untraced op, timing each layer
// boundary from hooks exp.Run already offers:
//
//	device.boot    device.New + the 3 s boot Settle, replayed on its own
//	               for the cell's seed and profile, outside the op span
//	exp.run        exp.Run, start to return
//	mempress.ramp  exp.Run start to its PlayerTweaks hook; the metric
//	               subtracts the boot replica's time
//	player.play    OnSession hook to exp.Run's return
//	abr.decide     each Decide call, through timedAlgo
//	qoe.score      Objective.Score
func (w *sessionWorkload) traced(c Cell, vr exp.VideoRun, op int, tr *Tracer) (exp.Result, qoe.Breakdown) {
	l := &w.l
	b0 := time.Now()
	bd := device.New(c.Seed, c.Profile, device.Options{})
	bd.Settle(bootSettle)
	b1 := time.Now()
	boot := b1.Sub(b0)

	t0 := time.Now()
	root := tr.Add(op, -1, "op", t0, t0)       // end patched below
	run := tr.Add(op, root, "exp.run", t0, t0) // end patched below
	var tHook, tSess time.Time
	var dev *device.Device
	var simStart time.Duration
	tweaks := vr.PlayerTweaks
	vr.PlayerTweaks = func(pc *player.Config) {
		tHook = time.Now()
		if tweaks != nil {
			tweaks(pc)
		}
	}
	play := -1
	vr.OnSession = func(s *player.Session, d *device.Device) {
		tSess = time.Now()
		dev, simStart = d, d.Clock.Now()
		play = tr.Add(op, run, "player.play", tSess, tSess) // end patched below
		if c.Algo != "" {
			abr.Attach(s, d, &timedAlgo{inner: newAlgo(c.Algo), l: l, tr: tr, op: op, span: play}, 2*time.Second)
		}
	}
	res := exp.Run(vr)
	t1 := time.Now()
	tr.End(run, t1)
	tr.End(play, t1)
	tr.Add(op, run, "mempress.ramp", t0, tHook)
	var b qoe.Breakdown
	t2 := t1
	if w.score {
		b = w.obj.Score(qoe.TraceFrom(res.Metrics, w.video))
		t2 = time.Now()
		tr.Add(op, root, "qoe.score", t1, t2)
		l.score += t2.Sub(t1)
	}
	tr.End(root, t2)
	tr.Add(op, -1, "device.boot", b0, b1)

	l.sessions++
	l.boot += boot
	l.ramp += tHook.Sub(t0) - boot
	l.play += t1.Sub(tSess)
	l.simPlay += dev.Clock.Now() - simStart
	return res, b
}

func (w *sessionWorkload) Fingerprint() uint64 { return w.fp.Sum() }

func (w *sessionWorkload) Check() error { return nil }

func (w *sessionWorkload) Layers() (map[string]float64, error) {
	l := w.l
	n := float64(l.sessions)
	if n == 0 {
		return nil, fmt.Errorf("no traced sessions")
	}
	per := func(d time.Duration) float64 { return us(d) / n }
	m := map[string]float64{
		"device.boot_us":           per(l.boot),
		"mempress.ramp_us":         per(l.ramp),
		"player.play_us":           per(l.play),
		"abr.decide_us":            per(l.decide),
		"abr.decisions":            float64(l.decisions),
		"qoe.score_us":             per(l.score),
		"kswapd.cpu_sim_ms":        ms(l.kswapd) / n,
		"lmkd.cpu_sim_ms":          ms(l.lmkd) / n,
		"blockio.mmcqd_cpu_sim_ms": ms(l.mmcqd) / n,
		"blockio.requests":         float64(l.ioRequests),
		"mem.swapins":              float64(l.swapins),
		"sched.preemptions":        float64(l.preempts),
		"player.crashes":           float64(l.crashes),
		"player.frames_dropped":    float64(l.dropped),
	}
	if l.simPlay > 0 {
		m["player.host_us_per_sim_s"] = us(l.play) / l.simPlay.Seconds()
	}
	return m, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
