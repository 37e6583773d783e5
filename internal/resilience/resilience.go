// Package resilience holds the client-side overload-protection
// primitives the streaming backend's players carry: a retry *budget*
// (token bucket refilled by successes) that replaces unbounded
// capped-exponential retries, a per-origin circuit breaker with
// half-open probing, a deterministic backoff jitter helper, and the
// Retrier that sequences them into one retry decision per failed
// attempt for both dash.Client and the loadgen simulator. The
// design target is the retry storm the paper's philosophy predicts:
// under a server-side fault window, a fleet of synchronized players
// retrying in lockstep multiplies the very load that caused the
// fault — budgets bound the multiplication, breakers stop paying for
// requests that cannot succeed, and jitter decorrelates the herd.
//
// Determinism contract (see LINTING.md): nothing here consults a wall
// clock or a global RNG. The breaker takes `now` as an explicit
// parameter on every transition, so the same call sequence yields the
// same state machine whether the caller's clock is time.Now or a
// virtual simulation clock. Jitter draws from a caller-owned
// *rand.Rand seeded from the player's FNV lane. None of the types are
// safe for concurrent use — each player owns its own instances, the
// same discipline loadgen applies to its recorders.
package resilience

import (
	"math"
	"math/rand"
	"time"
)

// BudgetConfig shapes a RetryBudget.
type BudgetConfig struct {
	// Capacity is the maximum banked retry tokens (and the initial
	// balance). Zero or negative disables the budget: Allow always
	// grants.
	Capacity float64
}

// refillTenthsPerSuccess is the part of a token, in tenths, earned
// back per successful request: ten successes buy one retry, i.e. a
// sustained 10% retry rate.
const refillTenthsPerSuccess = 1

// RetryBudget is a token bucket spent by retries and refilled by
// successes. Unlike a time-based bucket it needs no clock: the budget
// couples retry volume to useful work, so a player that stops
// succeeding soon stops retrying — exactly the behavior that lets a
// storm decay instead of amplifying.
type RetryBudget struct {
	cfg BudgetConfig
	// The balance and its cap are counted in tenths of a token, so
	// refills add exactly: ten float 0.1 steps sum to 0.9999999999999999
	// and would make an emptied budget wait for an eleventh success.
	tenths, capTenths int64

	// BudgetStats fields are plain counters (single-owner type).
	spent   int64
	denied  int64
	refills int64
}

// NewRetryBudget builds a budget with a full initial balance.
func NewRetryBudget(cfg BudgetConfig) *RetryBudget {
	capTenths := int64(math.Round(cfg.Capacity * 10))
	return &RetryBudget{cfg: cfg, tenths: capTenths, capTenths: capTenths}
}

// Allow consumes one retry token, reporting whether the retry may
// proceed. A disabled budget (Capacity <= 0) always grants.
func (b *RetryBudget) Allow() bool {
	if b == nil || b.cfg.Capacity <= 0 {
		return true
	}
	if b.tenths < 10 {
		b.denied++
		return false
	}
	b.tenths -= 10
	b.spent++
	return true
}

// OnSuccess banks refillTenthsPerSuccess tenths of a token, capped at
// Capacity.
func (b *RetryBudget) OnSuccess() {
	if b == nil || b.cfg.Capacity <= 0 {
		return
	}
	b.refills++
	b.tenths = min(b.tenths+refillTenthsPerSuccess, b.capTenths)
}

// Tokens returns the current balance (tests pin the arithmetic).
func (b *RetryBudget) Tokens() float64 { return float64(b.tenths) / 10 }

// BudgetStats snapshots the budget counters.
type BudgetStats struct {
	Spent  int64 // retries granted (tokens consumed)
	Denied int64 // retries refused on an empty bucket
}

// Stats snapshots the counters. Safe on a nil budget.
func (b *RetryBudget) Stats() BudgetStats {
	if b == nil {
		return BudgetStats{}
	}
	return BudgetStats{Spent: b.spent, Denied: b.denied}
}

// BreakerState is the circuit state.
type BreakerState int

const (
	// Closed passes requests through, counting consecutive failures.
	Closed BreakerState = iota
	// Open fails fast until the cooldown elapses.
	Open
	// HalfOpen lets one probe through; its outcome closes or reopens.
	HalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "breaker-state-?"
	}
}

// BreakerConfig shapes a Breaker.
type BreakerConfig struct {
	// FailThreshold is the consecutive-failure count that opens the
	// circuit (default 5). Zero or negative keeps the default; use a
	// nil *Breaker to disable breaking entirely.
	FailThreshold int
	// Cooldown is how long the circuit stays open before a half-open
	// probe is allowed (default 2s).
	Cooldown time.Duration
}

// Breaker is a per-origin circuit breaker. Closed it counts
// consecutive failures; at FailThreshold it opens and fails fast;
// after Cooldown it half-opens and admits one probe whose outcome
// decides between closing and reopening. All transitions take the
// caller's `now` so the machine runs identically on a real or a
// virtual clock.
type Breaker struct {
	cfg      BreakerConfig
	state    BreakerState
	failures int
	openedAt time.Time
	probing  bool // a half-open probe is in flight

	opens     int64
	fastFails int64
	probes    int64
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 5
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 2 * time.Second
	}
	return &Breaker{cfg: cfg}
}

// Allow reports whether a request may be attempted at now. Open
// circuits fail fast until the cooldown elapses, then admit exactly
// one half-open probe at a time. A nil breaker always allows.
func (br *Breaker) Allow(now time.Time) bool {
	if br == nil {
		return true
	}
	switch br.state {
	case Closed:
		return true
	case Open:
		if now.Sub(br.openedAt) >= br.cfg.Cooldown {
			br.state = HalfOpen
			br.probing = true
			br.probes++
			return true
		}
		br.fastFails++
		return false
	case HalfOpen:
		if !br.probing {
			br.probing = true
			br.probes++
			return true
		}
		br.fastFails++
		return false
	}
	return true
}

// OnSuccess records a successful request: a half-open probe success
// closes the circuit; closed circuits reset their failure run.
func (br *Breaker) OnSuccess(now time.Time) {
	if br == nil {
		return
	}
	br.failures = 0
	br.probing = false
	br.state = Closed
}

// OnFailure records a failed request at now: closed circuits open at
// the threshold, a failed half-open probe reopens for a fresh
// cooldown.
func (br *Breaker) OnFailure(now time.Time) {
	if br == nil {
		return
	}
	switch br.state {
	case Closed:
		if br.failures++; br.failures >= br.cfg.FailThreshold {
			br.open(now)
		}
	case HalfOpen:
		br.probing = false
		br.open(now)
	case Open:
		// A failure landing while open (an in-flight request issued
		// before the trip) keeps the cooldown anchored at the most
		// recent evidence.
		br.openedAt = now
	}
}

func (br *Breaker) open(now time.Time) {
	br.state = Open
	br.openedAt = now
	br.failures = 0
	br.opens++
}

// State returns the current circuit state.
func (br *Breaker) State() BreakerState {
	if br == nil {
		return Closed
	}
	return br.state
}

// BreakerStats snapshots the breaker counters.
type BreakerStats struct {
	Opens     int64 // transitions into Open
	FastFails int64 // requests refused without touching the network
	Probes    int64 // half-open probes admitted
}

// Stats snapshots the counters. Safe on a nil breaker.
func (br *Breaker) Stats() BreakerStats {
	if br == nil {
		return BreakerStats{}
	}
	return BreakerStats{Opens: br.opens, FastFails: br.fastFails, Probes: br.probes}
}

// Jitter spreads d uniformly over [0.5d, 1.5d) using the caller's
// seeded generator — the same multiplicative shape faults.Windows
// applies to storm gaps, here decorrelating a fleet's retry timers so
// a fault window's survivors do not return as one synchronized wave.
func Jitter(rng *rand.Rand, d time.Duration) time.Duration {
	if rng == nil || d <= 0 {
		return d
	}
	return time.Duration(float64(d) * (0.5 + rng.Float64()))
}
