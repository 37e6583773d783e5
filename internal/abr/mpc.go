package abr

import (
	"math"
	"time"

	"coalqoe/internal/dash"
	"coalqoe/internal/player"
	"coalqoe/internal/proc"
	"coalqoe/internal/qoe"
	"coalqoe/internal/units"
)

// riskTracker folds memory-pressure signals and client-side drop rate
// into a single decaying risk score in [0, 1]. Both QoE-driven
// algorithms share it: a fresh Critical signal pins risk at 1, a
// Moderate one at ~0.65, and a quiet period lets it fade linearly over
// riskHoldDown — the same probe-back-up cadence MemoryAware uses.
type riskTracker struct {
	peak   float64
	peakAt time.Duration
	seen   bool
}

const (
	// riskHoldDown is the quiet period over which risk decays to zero
	// after the last trouble.
	riskHoldDown = 12 * time.Second
	// riskDropTrigger is the recent-drop-rate percentage treated as
	// full-severity trouble.
	riskDropTrigger = 30
)

// update ingests an observation and returns the current risk.
func (t *riskTracker) update(ctx Context) float64 {
	// A fresh signal is a fast-attack floor — it says pressure exists,
	// not how badly this device decodes under it. The observed drop
	// rate supplies the magnitude: a capable SoC shrugging off
	// Moderate signals at 4% drops should not be priced like a
	// saturated one.
	sev := 0.0
	if ctx.SignalAge < 3*time.Second {
		switch {
		case ctx.Signal >= proc.Critical:
			sev = 0.3
		case ctx.Signal >= proc.Low:
			sev = 0.2
		case ctx.Signal >= proc.Moderate:
			sev = 0.1
		}
	}
	if d := ctx.RecentDropRate / riskDropTrigger; d > sev {
		sev = math.Min(d, 1)
	}
	// The envelope decays from the moment the peak was RAISED, not
	// from the last time any trouble was seen: a transient 100% drop
	// spike must not stay latched at risk 1 just because a standing
	// Moderate signal keeps arriving. Ongoing trouble sustains its own
	// severity via the max below, nothing more.
	if sev >= t.peak {
		t.peak = sev
		t.peakAt = ctx.Now
		t.seen = sev > 0
	}
	decayed := 0.0
	if t.seen {
		quiet := ctx.Now - t.peakAt
		if quiet >= riskHoldDown {
			t.peak = 0
			t.seen = false
		} else {
			decayed = t.peak * (1 - float64(quiet)/float64(riskHoldDown))
		}
	}
	return math.Max(sev, decayed)
}

// load01 normalizes a rung's decode load (pixel throughput) against
// the heaviest rung on the ladder, so the top rung scores 1.
func load01(r dash.Rung, maxLoad float64) float64 {
	if maxLoad <= 0 {
		return 0
	}
	l := decodeLoad(r) / maxLoad
	if l > 1 {
		return 1
	}
	return l
}

func decodeLoad(r dash.Rung) float64 {
	fps := float64(r.FPS)
	if fps < 0 {
		fps = 0
	}
	return float64(r.Resolution.Pixels()) / 1e6 * fps
}

func maxDecodeLoad(ladder []dash.Rung) float64 {
	m := 0.0
	for _, r := range ladder {
		if l := decodeLoad(r); l > m {
			m = l
		}
	}
	return m
}

// clampToLadder returns r if it is on the ladder, else the lowest
// rung — the safe fallback when the current rung is off-manifest.
func clampToLadder(r dash.Rung, ladder []dash.Rung) dash.Rung {
	for _, l := range ladder {
		if l == r {
			return r
		}
	}
	return ladder[0]
}

// MPC is an MPC-style lookahead: it forecasts throughput as the
// harmonic mean of the recent download samples, folds memory pressure
// into a predicted delivered-frame fraction, and picks the rung that
// maximizes the QoE objective over a receding horizon of future
// chunks (buffer dynamics simulated per candidate). This is the
// FastMPC approximation — candidate set restricted to "hold one rung
// for the horizon", which keeps the search linear in ladder size while
// retaining the buffer-aware lookahead that distinguishes MPC from
// myopic throughput rules.
type MPC struct {
	risk    riskTracker
	samples []units.BitsPerSecond
	// obj scores simulated futures: the flat-table objective over the
	// decision ladder, built on first use.
	obj *qoe.Objective
}

// chunkDuration is the chunk length both QoE-driven controllers
// assume when they price a rung.
const chunkDuration = 4 * time.Second

const (
	// mpcHorizon is the number of future chunks MPC simulates.
	mpcHorizon = 5
	// mpcWindow is the throughput-sample history length.
	mpcWindow = 5
	// mpcSafety discounts the throughput forecast.
	mpcSafety = 0.9
	// mpcHoldBonus is added to the current rung's horizon score —
	// hysteresis against risk-decay wiggle, in objective points over
	// the whole horizon.
	mpcHoldBonus = 8
)

// Name implements Algorithm.
func (*MPC) Name() string { return "mpc" }

// Decide implements Algorithm. The returned rung is always on the
// ladder when the ladder is non-empty.
func (a *MPC) Decide(ctx Context) dash.Rung {
	if len(ctx.Ladder) == 0 {
		return ctx.Current
	}
	if t := float64(ctx.Throughput); t > 0 && !math.IsInf(t, 1) {
		a.samples = append(a.samples, ctx.Throughput)
		if len(a.samples) > mpcWindow {
			a.samples = a.samples[len(a.samples)-mpcWindow:]
		}
	}
	risk := a.risk.update(ctx)
	if len(a.samples) == 0 {
		// Nothing measured yet: hold, but never report an off-ladder
		// rung as a decision.
		return clampToLadder(ctx.Current, ctx.Ladder)
	}
	predicted := a.forecast()
	if a.obj == nil {
		a.obj = qoe.FlatObjective(ctx.Ladder)
	}
	obj := a.obj
	maxLoad := maxDecodeLoad(ctx.Ladder)
	best, bestScore := ctx.Ladder[0], math.Inf(-1)
	for _, r := range ctx.Ladder {
		score := simulate(ctx, obj, r, predicted, risk, maxLoad)
		if r == ctx.Current {
			score += mpcHoldBonus
		}
		// Strict > over the ascending ladder: ties pick the lowest
		// bitrate, and a NaN score never wins.
		if score > bestScore {
			best, bestScore = r, score
		}
	}
	return best
}

// forecast returns the safety-discounted harmonic mean of the sample
// window. The harmonic mean is the standard MPC choice: it weights
// slow samples heavily, so one stall-inducing dip caps the forecast.
func (a *MPC) forecast() float64 {
	inv := 0.0
	for _, s := range a.samples {
		inv += 1 / float64(s)
	}
	return mpcSafety * float64(len(a.samples)) / inv
}

// simulate plays the horizon holding rung r and returns the summed
// per-chunk objective score.
func simulate(ctx Context, obj *qoe.Objective, r dash.Rung, predicted, risk, maxLoad float64) float64 {
	chunkSecs := chunkDuration.Seconds()
	capSecs := player.BufferCapacity.Seconds()
	bufSecs := ctx.Buffer.Seconds()
	if bufSecs < 0 {
		bufSecs = 0
	}
	delivered := 1 - risk*load01(r, maxLoad)
	prev := qoe.Chunk{Rung: ctx.Current, Duration: chunkDuration, Delivered: 1}
	startBuf := bufSecs
	total := 0.0
	for i := 0; i < mpcHorizon; i++ {
		dl := float64(r.Bitrate) * chunkSecs / predicted
		rebuf := 0.0
		if dl > bufSecs {
			rebuf = dl - bufSecs
			bufSecs = 0
		} else {
			bufSecs -= dl
		}
		bufSecs += chunkSecs
		if bufSecs > capSecs {
			bufSecs = capSecs
		}
		c := qoe.Chunk{
			Rung:      r,
			Duration:  chunkDuration,
			Rebuffer:  time.Duration(rebuf * float64(time.Second)),
			Delivered: delivered,
		}
		total += obj.Compute(c, &prev).Total
		prev = c
	}
	// Terminal buffer constraint: a horizon that ends with less buffer
	// than it started has borrowed stall time from just past the
	// lookahead. Without this charge a deep buffer absorbs any
	// unsustainable rung's drain for mpcHorizon chunks and the
	// controller rides a leap-drain-dive-refill sawtooth.
	if deficit := startBuf - bufSecs; deficit > 0 {
		total -= obj.RebufferPenalty * deficit
	}
	return total
}

// QoEAware is the tuned variant of the paper's §6 memory-pressure-aware
// ABR: instead of stepping down a fixed degradation path on each
// signal, it optimizes the QoE objective directly. Risk discounts a
// rung's expected delivered-frame fraction in proportion to its decode
// load, so under pressure the argmax lands exactly where the paper
// points — same resolution at a lower encoded frame rate first (big
// load reduction, small bitrate/quality loss), then lower resolutions —
// while the rebuffer and energy terms keep it honest about the network
// and the battery.
type QoEAware struct {
	risk riskTracker
	// obj scores candidates: the flat-table objective over the decision
	// ladder, built on first use.
	obj *qoe.Objective
}

const (
	// qoeAwareSafety discounts measured throughput.
	qoeAwareSafety = 0.85
	// qoeAwareHoldBonus is added to the current rung's score —
	// hysteresis, in objective points. A switch costs the player a
	// codec splice (its 2 s switch latency), so flapping through
	// intermediate rungs while risk decays is worse than holding until
	// a clearly better rung appears.
	qoeAwareHoldBonus = 1
)

// Name implements Algorithm.
func (*QoEAware) Name() string { return "memopt" }

// Decide implements Algorithm.
func (a *QoEAware) Decide(ctx Context) dash.Rung {
	if len(ctx.Ladder) == 0 {
		return ctx.Current
	}
	risk := a.risk.update(ctx)
	if a.obj == nil {
		a.obj = qoe.FlatObjective(ctx.Ladder)
	}
	obj := a.obj
	maxLoad := maxDecodeLoad(ctx.Ladder)
	chunkSecs := chunkDuration.Seconds()
	bufSecs := ctx.Buffer.Seconds()
	if bufSecs < 0 {
		bufSecs = 0
	}
	predicted := qoeAwareSafety * float64(ctx.Throughput)
	if !(predicted > 0) || math.IsInf(predicted, 1) {
		// No throughput measured yet (session start) — a quality
		// argmax with no rebuffer term would leap to the ladder top
		// and stall the startup. Hold instead, like MPC.
		return clampToLadder(ctx.Current, ctx.Ladder)
	}
	const dwell = 5.0
	cur := qoe.Chunk{Rung: ctx.Current, Duration: chunkDuration, Delivered: 1}
	best, bestScore := ctx.Ladder[0], math.Inf(-1)
	for _, r := range ctx.Ladder {
		rebuf := 0.0
		dl := float64(r.Bitrate) * chunkSecs / predicted
		if dl > bufSecs {
			// Immediate stall: the chunk outlasts the buffer.
			rebuf = dl - bufSecs
		}
		if dl > chunkSecs {
			// Steady-state drain: a rung that downloads slower than
			// it plays rebuffers (dl − chunk) per chunk once the
			// cushion is gone — charging it per decision keeps a full
			// buffer from hiding an unsustainable rung.
			rebuf += dl - chunkSecs
		}
		c := qoe.Chunk{
			Rung:      r,
			Duration:  chunkDuration,
			Rebuffer:  time.Duration(rebuf * float64(time.Second)),
			Delivered: 1 - risk*load01(r, maxLoad),
		}
		b := obj.Compute(c, &cur)
		// The smoothness penalty is a one-time switch cost, but every
		// other term recurs each chunk the rung is held. Charging it in
		// full against a single chunk's gain would trap the controller
		// at whatever rung a pressure dive left it on, so amortize it
		// over the expected dwell (MPC gets this for free from its
		// horizon).
		score := b.Total + b.Smoothness*(1-1.0/dwell)
		if r == ctx.Current {
			score += qoeAwareHoldBonus
		}
		if score > bestScore {
			best, bestScore = r, score
		}
	}
	return best
}
