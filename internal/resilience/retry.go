package resilience

import (
	"math/rand"
	"time"
)

// Retrier is one player's retry state machine: the policy, the
// player's defenses, and the fetch in progress. It never sleeps or
// reads a clock — callers pass now and act on the returned delay
// (dash.Client sleeps on its injected clock; the loadgen simulator
// schedules a virtual-time event) — so the HTTP path and the
// simulation decide identically, in this order:
//
//  1. the breaker gates every attempt; a fast-fail ends the fetch and
//     is not evidence about the origin (Allow);
//  2. a non-retryable failure stops the fetch, and so does the last
//     permitted attempt;
//  3. the budget pays for every retry, or the fetch is exhausted;
//  4. the retry waits max(backoff, server hint), jittered;
//  5. the backoff doubles, capped at BackoffCap.
type Retrier struct {
	// Attempts is the total tries per fetch (below 1 means 1). Backoff
	// is the first retry's delay; it doubles up to BackoffCap.
	Attempts   int
	Backoff    time.Duration
	BackoffCap time.Duration

	// Budget, Breaker and Jitter arm the defenses; nil disables each.
	Budget  *RetryBudget
	Breaker *Breaker
	Jitter  *rand.Rand

	attempt int           // attempts begun by the current fetch
	backoff time.Duration // base delay of the next retry
}

// Verdict is what follows a failed attempt.
type Verdict int

const (
	Retry     Verdict = iota // wait Step.Delay, then attempt again
	Stop                     // the failure is final
	Exhausted                // the retry budget refused the retry
)

// Step is the decision after a failed attempt. Delay (the jittered
// pause) and Hinted (the server's hint outweighed the backoff) are set
// only for Retry.
type Step struct {
	Verdict Verdict
	Delay   time.Duration
	Hinted  bool
}

// Begin starts a fetch: no attempts used, backoff at its base.
func (r *Retrier) Begin() {
	r.attempt = 0
	r.backoff = r.Backoff
}

// Attempt returns how many attempts the current fetch has begun.
func (r *Retrier) Attempt() int { return r.attempt }

// Allow begins the next attempt at now, reporting whether the breaker
// lets it through. On false the fetch is over, without OnFailure.
func (r *Retrier) Allow(now time.Time) bool {
	r.attempt++
	return r.Breaker.Allow(now)
}

// OnSuccess ends the fetch in success: the breaker closes and the
// budget earns its refill.
func (r *Retrier) OnSuccess(now time.Time) {
	r.Breaker.OnSuccess(now)
	r.Budget.OnSuccess()
}

// OnFailure records a failed attempt at now and decides what follows.
// retryable is the caller's classification of the failure, hint the
// server's Retry-After (0 for none). Jitter is drawn only for a Retry.
func (r *Retrier) OnFailure(now time.Time, retryable bool, hint time.Duration) Step {
	r.Breaker.OnFailure(now)
	if !retryable || r.attempt >= r.Attempts {
		return Step{Verdict: Stop}
	}
	if !r.Budget.Allow() {
		return Step{Verdict: Exhausted}
	}
	delay, hinted := r.backoff, hint > r.backoff
	if hinted {
		delay = hint
	}
	if r.backoff *= 2; r.backoff > r.BackoffCap {
		r.backoff = r.BackoffCap
	}
	return Step{Verdict: Retry, Delay: Jitter(r.Jitter, delay), Hinted: hinted}
}
