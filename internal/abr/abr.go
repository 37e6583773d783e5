// Package abr implements video adaptation algorithms: the classic
// network-driven baselines (rate-based, buffer-based, BOLA) and the
// paper's proposal — a memory-pressure-aware policy that reacts to
// onTrimMemory signals by stepping down the encoded frame rate and, if
// needed, the resolution (§6: "a video can continue to be rendered at
// high resolution by decreasing the encoded frame rate").
//
// Algorithms are pure decision functions over an observation Context;
// a Controller polls the session, asks the algorithm, and applies
// switches. This mirrors how dash.js separates ABR rules from the
// player.
package abr

import (
	"math"
	"sort"
	"time"

	"coalqoe/internal/dash"
	"coalqoe/internal/device"
	"coalqoe/internal/player"
	"coalqoe/internal/proc"
	"coalqoe/internal/telemetry"
	"coalqoe/internal/units"
)

// Context is the observation an algorithm decides on.
type Context struct {
	// Now is the virtual time of the decision.
	Now time.Duration
	// Current is the rung currently playing.
	Current dash.Rung
	// Ladder is the available rung set, sorted by ascending bitrate
	// (ties in manifest order). It is shared across decisions, so
	// algorithms must not modify it.
	Ladder []dash.Rung
	// Buffer is the playback buffer level.
	Buffer time.Duration
	// Throughput is the last measured download throughput.
	Throughput units.BitsPerSecond
	// Signal is the most recent memory-pressure signal (Normal when
	// none was received recently).
	Signal proc.Level
	// SignalAge is how long ago Signal was received.
	SignalAge time.Duration
	// RecentDropRate is the frame-drop percentage over the last few
	// seconds — the client-side symptom of device bottlenecks.
	RecentDropRate float64
}

// Algorithm decides the rung to play next.
type Algorithm interface {
	Name() string
	Decide(ctx Context) dash.Rung
}

// Fixed never adapts; it is the paper's §4 experimental condition.
type Fixed struct{}

// Name implements Algorithm.
func (Fixed) Name() string { return "fixed" }

// Decide implements Algorithm.
func (Fixed) Decide(ctx Context) dash.Rung { return ctx.Current }

// RateBased picks the highest bitrate under a safety fraction of the
// measured throughput — the classic throughput rule.
type RateBased struct{}

// rateSafety is the throughput fraction RateBased spends.
const rateSafety = 0.8

// Name implements Algorithm.
func (RateBased) Name() string { return "rate" }

// Decide implements Algorithm.
func (RateBased) Decide(ctx Context) dash.Rung {
	budget := units.BitsPerSecond(rateSafety * float64(ctx.Throughput))
	if ctx.Throughput == 0 {
		return ctx.Current
	}
	best := ctx.Ladder[0]
	for _, r := range ctx.Ladder {
		if r.Bitrate <= budget && r.Bitrate >= best.Bitrate {
			best = r
		}
	}
	return best
}

// BufferBased is BBA-style: map the buffer level linearly onto the
// ladder between a reservoir and a cushion.
type BufferBased struct{}

const (
	// bbaReservoir is the buffer level below which the lowest rung
	// plays.
	bbaReservoir = 10 * time.Second
	// bbaCushion is the level at which the highest rung plays.
	bbaCushion = 45 * time.Second
)

// Name implements Algorithm.
func (BufferBased) Name() string { return "bba" }

// Decide implements Algorithm.
func (BufferBased) Decide(ctx Context) dash.Rung {
	if ctx.Buffer <= bbaReservoir {
		return ctx.Ladder[0]
	}
	if ctx.Buffer >= bbaCushion {
		return ctx.Ladder[len(ctx.Ladder)-1]
	}
	frac := float64(ctx.Buffer-bbaReservoir) / float64(bbaCushion-bbaReservoir)
	idx := int(frac * float64(len(ctx.Ladder)-1))
	return ctx.Ladder[idx]
}

// BOLA is the Lyapunov-based buffer algorithm of Spiteri et al. [35],
// in its BOLA-BASIC form: choose the rung maximizing
// (V·(utility + γ) − Q) / bitrate, with utility = ln(bitrate / min).
type BOLA struct{}

// bolaGamma (γ) rewards buffer growth.
const bolaGamma = 5

// Name implements Algorithm.
func (BOLA) Name() string { return "bola" }

// Decide implements Algorithm.
func (BOLA) Decide(ctx Context) dash.Rung {
	minBitrate := float64(ctx.Ladder[0].Bitrate)
	maxUtility := ln(float64(ctx.Ladder[len(ctx.Ladder)-1].Bitrate) / minBitrate)
	// V calibrated so the top rung is chosen when the buffer is near
	// capacity.
	v := (player.BufferCapacity.Seconds() - 1) / (maxUtility + bolaGamma)
	q := ctx.Buffer.Seconds()
	best, bestScore := ctx.Current, -1e18
	for _, r := range ctx.Ladder {
		utility := ln(float64(r.Bitrate) / minBitrate)
		score := (v*(utility+bolaGamma) - q) / (float64(r.Bitrate) / 1e6)
		if score > bestScore {
			bestScore = score
			best = r
		}
	}
	return best
}

func ln(x float64) float64 {
	if x <= 0 {
		return -1e9
	}
	return math.Log(x)
}

// MemoryAware is the paper's §6/§7 proposal: a wrapper that lets a
// network algorithm pick the bitrate under Normal conditions, but
// reacts to memory-pressure signals by stepping the encoded frame rate
// down first (the adaptation §6 shows rescues high resolutions), then
// the resolution. Recovery probes back up after a sustained quiet
// period.
type MemoryAware struct {
	// Inner handles network adaptation under Normal conditions.
	Inner Algorithm

	steps       int // current severity: each step removes fps or resolution
	lastTrouble time.Duration
}

const (
	// awareHoldDown is how long MemoryAware stays stepped-down after a
	// signal.
	awareHoldDown = 15 * time.Second
	// awareDropTrigger additionally steps down when the recent drop
	// rate exceeds this percentage.
	awareDropTrigger = 10
)

// Name implements Algorithm.
func (*MemoryAware) Name() string { return "memaware" }

// Decide implements Algorithm.
func (a *MemoryAware) Decide(ctx Context) dash.Rung {
	trouble := (ctx.Signal >= proc.Moderate && ctx.SignalAge < 3*time.Second) ||
		ctx.RecentDropRate > awareDropTrigger
	if trouble {
		a.lastTrouble = ctx.Now
		if a.steps < 6 {
			a.steps++
		}
	} else if ctx.Now-a.lastTrouble > awareHoldDown && a.steps > 0 {
		// Quiet long enough: probe one step back up.
		a.steps--
		a.lastTrouble = ctx.Now
	}

	want := a.Inner.Decide(ctx)
	return a.applySteps(ctx, want)
}

// applySteps degrades the wanted rung by the current severity: first
// lower frame rates at the same resolution, then lower resolutions at
// the lowest frame rate.
func (a *MemoryAware) applySteps(ctx Context, want dash.Rung) dash.Rung {
	if a.steps == 0 {
		return want
	}
	// Enumerate the degradation path from the wanted rung: same
	// resolution with descending fps, then descending resolutions
	// (keeping the lowest available fps).
	path := degradationPath(ctx.Ladder, want)
	idx := a.steps
	if idx >= len(path) {
		idx = len(path) - 1
	}
	return path[idx]
}

// degradationPath lists rungs from want downward: fps steps first,
// then resolution steps, each lower resolution at its own lowest
// available fps.
func degradationPath(ladder []dash.Rung, want dash.Rung) []dash.Rung {
	var sameRes []dash.Rung
	for _, r := range ladder {
		if r.Resolution == want.Resolution && r.FPS <= want.FPS {
			sameRes = append(sameRes, r)
		}
	}
	sort.Slice(sameRes, func(i, j int) bool { return sameRes[i].FPS > sameRes[j].FPS })
	path := append([]dash.Rung{}, sameRes...)
	// Then lower resolutions. Each resolution steps to its OWN minimum
	// fps, not the ladder-wide minimum: on a ragged ladder (say
	// 1080p60/1080p30/720p30/480p24) the 720p tier has no 24 fps
	// encoding, and filtering on the global minimum used to skip it
	// entirely, jumping 1080p30 → 480p24.
	lowFPS := map[dash.Resolution]int{}
	for _, r := range ladder {
		if r.Resolution >= want.Resolution {
			continue
		}
		if f, ok := lowFPS[r.Resolution]; !ok || r.FPS < f {
			lowFPS[r.Resolution] = r.FPS
		}
	}
	var lower []dash.Rung
	for _, r := range ladder {
		if r.Resolution < want.Resolution && r.FPS == lowFPS[r.Resolution] {
			lower = append(lower, r)
		}
	}
	sort.Slice(lower, func(i, j int) bool { return lower[i].Resolution > lower[j].Resolution })
	path = append(path, lower...)
	if len(path) == 0 {
		path = []dash.Rung{want}
	}
	return path
}

// Decision is one recorded ABR decision — the observation the
// algorithm saw and the rung it chose. The arena exports these as
// chrome://tracing instants so a run's adaptation behavior can be
// scrubbed alongside its fault windows.
type Decision struct {
	At         time.Duration
	From, To   dash.Rung
	Buffer     time.Duration
	Throughput units.BitsPerSecond
	Signal     proc.Level
	DropRate   float64
}

// Controller drives an algorithm against a live session.
type Controller struct {
	sess *player.Session
	algo Algorithm

	lastSignal   proc.Level
	lastSignalAt time.Duration
	// Switches counts applied quality changes.
	Switches int

	// RecordDecisions enables the Decisions log (off by default: the
	// fleet engine runs millions of decisions and must not hold them).
	// Set it between Attach and the first clock advance.
	RecordDecisions bool
	// Decisions holds every decision taken while RecordDecisions was
	// set, in decision order.
	Decisions []Decision

	decisionCtr *telemetry.Counter
	switchCtr   *telemetry.Counter
}

// Attach wires the algorithm to the session: decisions run every
// interval and immediately on each memory-pressure signal,
// the reactive path §6 recommends.
func Attach(sess *player.Session, dev *device.Device, algo Algorithm, interval time.Duration) *Controller {
	c := &Controller{sess: sess, algo: algo, lastSignalAt: -time.Hour}
	// Counter() is nil-safe: with telemetry off both stay nil and the
	// Inc calls below are free no-ops.
	c.decisionCtr = dev.Telem.Counter("abr.decisions")
	c.switchCtr = dev.Telem.Counter("abr.switches")
	// The manifest ladder is fixed for the session, so it is sorted
	// once. The sort is stable because rungs can tie on bitrate (240p60
	// and 360p30 both run at 1 Mbps): ties keep manifest order.
	ladder := append([]dash.Rung(nil), sess.Manifest().Rungs...)
	sort.SliceStable(ladder, func(i, j int) bool { return ladder[i].Bitrate < ladder[j].Bitrate })
	decide := func() {
		if !sess.Active() {
			return
		}
		ctx := Context{
			Now:            dev.Clock.Now(),
			Current:        sess.Rung(),
			Ladder:         ladder,
			Buffer:         sess.BufferLevel(),
			Throughput:     sess.Throughput(),
			Signal:         c.lastSignal,
			SignalAge:      dev.Clock.Now() - c.lastSignalAt,
			RecentDropRate: sess.RecentDropRate(3),
		}
		want := c.algo.Decide(ctx)
		c.decisionCtr.Inc()
		if c.RecordDecisions {
			c.Decisions = append(c.Decisions, Decision{
				At: ctx.Now, From: ctx.Current, To: want,
				Buffer: ctx.Buffer, Throughput: ctx.Throughput,
				Signal: ctx.Signal, DropRate: ctx.RecentDropRate,
			})
		}
		if want != ctx.Current {
			c.Switches++
			c.switchCtr.Inc()
			sess.SwitchRung(want)
		}
	}
	sess.OnSignal(func(l proc.Level) {
		c.lastSignal = l
		c.lastSignalAt = dev.Clock.Now()
		decide()
	})
	dev.Clock.Every(interval, decide)
	return c
}
