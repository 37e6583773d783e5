// Client-side resilience: the retry layer that keeps a fleet of
// players from amplifying a server fault into a storm. The seed
// client retried with bare capped-exponential backoff — correct for
// one player, catastrophic for a thousand synchronized ones: every
// retry is free, so a fault window multiplies offered load exactly
// when the server can least afford it. This file adds the four
// defenses the overload literature prescribes, all deterministic on
// injected clocks and seed lanes:
//
//   - Retry-After honoring: a server that sheds load tells the client
//     when to come back; ignoring it defeats admission control.
//   - Jittered backoff: synchronized players must not return as one
//     wave; delays spread ×[0.5,1.5) on the player's own seed lane.
//   - Retry budgets: retries are paid for by past successes
//     (resilience.RetryBudget), so a player that stops succeeding
//     stops retrying and the storm decays.
//   - Circuit breaking: after consecutive failures the client fails
//     fast (resilience.Breaker) instead of burning a timeout per
//     attempt, and probes half-open before resuming.
package dash

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"time"

	"coalqoe/internal/resilience"
)

// TenantHeader carries the client's tenant identity to the server's
// admission controller (cdn.Governor quotas key on it).
const TenantHeader = "X-Tenant"

// ServedRungHeader reports brownout demotion: the ladder rung the
// server actually served when it differs from the one requested.
const ServedRungHeader = "X-Served-Rung"

// maxRetryAfter caps how long a client will honor a server's
// Retry-After hint — a misbehaving (or chaos-injected) header must not
// park a player for minutes.
const maxRetryAfter = 10 * time.Second

// ErrCircuitOpen is returned (wrapped) when the client's circuit
// breaker refuses an attempt without touching the network.
var ErrCircuitOpen = errors.New("dash: circuit open")

// ErrBudgetExhausted is returned (wrapped, alongside the attempt's own
// error) when the retry budget refuses further attempts.
var ErrBudgetExhausted = errors.New("dash: retry budget exhausted")

// StatusError is a non-2xx response, carrying any Retry-After hint the
// server attached. RetrySignal unwraps it to decide retryability and
// pacing; loadgen unwraps it to classify failures.
type StatusError struct {
	Status     int
	RetryAfter time.Duration
	Msg        string
}

func (e *StatusError) Error() string { return e.Msg }

// Error classes for the loadgen report: overload experiments must tell
// "the server protected itself" (shed) apart from "the server fell
// over" (http5xx) and from client-side pathologies.
const (
	ClassShed      = "shed"      // explicit backpressure: 429, or 5xx with Retry-After
	ClassHTTP5xx   = "http5xx"   // server-side failure without a hint (chaos 502/503)
	ClassHTTP4xx   = "http4xx"   // client error, never retried
	ClassTimeout   = "timeout"   // attempt deadline exceeded
	ClassBreaker   = "breaker"   // refused locally by the circuit breaker
	ClassTransport = "transport" // everything else on the wire
)

// ErrorClasses lists the classes in report order.
var ErrorClasses = []string{ClassShed, ClassHTTP5xx, ClassHTTP4xx, ClassTimeout, ClassBreaker, ClassTransport}

// Classify buckets a fetch error into one of ErrorClasses.
func Classify(err error) string {
	if errors.Is(err, ErrCircuitOpen) {
		return ClassBreaker
	}
	var se *StatusError
	if errors.As(err, &se) {
		switch {
		case se.Status == http.StatusTooManyRequests, se.RetryAfter > 0:
			return ClassShed
		case se.Status >= 500:
			return ClassHTTP5xx
		default:
			return ClassHTTP4xx
		}
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return ClassTimeout
	}
	return ClassTransport
}

// retryAfterSeconds renders a backoff hint as the integer seconds a
// server's Retry-After header carries: rounded up, never below 1 ("0"
// would invite an immediate retry).
func retryAfterSeconds(d time.Duration) int64 {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// honoredRetryAfter is the pause a client takes for an advertised
// Retry-After of secs: none for a non-positive value, at most
// maxRetryAfter.
func honoredRetryAfter(secs int64) time.Duration {
	if secs <= 0 {
		return 0
	}
	if secs > int64(maxRetryAfter/time.Second) {
		return maxRetryAfter
	}
	return time.Duration(secs) * time.Second
}

// RetryAfterHint is the pause a Client honours when a server sheds
// with backoff hint d: the header round trip, for the loadgen
// simulator, which models the exchange without a header.
func RetryAfterHint(d time.Duration) time.Duration {
	return honoredRetryAfter(retryAfterSeconds(d))
}

// parseRetryAfter reads a Retry-After header deterministically:
// integer seconds only (the HTTP-date form needs a wall clock to
// interpret, which internal/ does not have).
func parseRetryAfter(h string) time.Duration {
	secs, err := strconv.ParseInt(h, 10, 64)
	if err != nil {
		return 0
	}
	return honoredRetryAfter(secs)
}

// Resilience arms the client's overload defenses. All fields are
// optional; the zero value behaves like the bare RetryPolicy client.
type Resilience struct {
	// Budget meters retries (not first attempts). Single-owner, like
	// the client itself.
	Budget *resilience.RetryBudget
	// Breaker fails fast per origin. Transitions run on the client's
	// injected Now.
	Breaker *resilience.Breaker
	// Jitter spreads backoff delays ×[0.5,1.5); seed it from the
	// player's FNV lane. Nil disables jitter.
	Jitter *rand.Rand
	// Hedge launches a second identical segment request if the first
	// has not completed after this delay, taking whichever finishes
	// first — the classic tail-latency trade of extra load for a
	// bounded p99. Zero disables hedging.
	Hedge time.Duration
	// Tenant is sent as the X-Tenant header on every request.
	Tenant string
}

// SetResilience arms the overload defenses. Call alongside SetRetry;
// a client without resilience behaves exactly as before.
func (c *Client) SetResilience(r Resilience) {
	if r.Hedge > 0 && c.sleep == nil {
		panic("dash: hedged requests need a sleep func; call SetRetry first")
	}
	c.res = r
}

// ClientStats snapshots the client-side resilience counters the
// loadgen report aggregates into client.retrybudget.* /
// client.breaker.* / client.hedge.*.
type ClientStats struct {
	Budget  resilience.BudgetStats
	Breaker resilience.BreakerStats
	Hedges  int64 // hedge requests actually launched
	Waited  int64 // retries that honored a server Retry-After hint
}

// ResilienceStats snapshots the client's resilience counters.
func (c *Client) ResilienceStats() ClientStats {
	return ClientStats{
		Budget:  c.res.Budget.Stats(),
		Breaker: c.res.Breaker.Stats(),
		Hedges:  c.hedges.Load(),
		Waited:  c.waited.Load(),
	}
}

// RetrySignal reads a failed attempt for resilience.Retrier.OnFailure:
// whether it is worth retrying (transport errors and 5xx/429 are;
// other 4xx are not — re-sending a request the server rejected
// outright only burns the backoff budget) and the Retry-After hint it
// carried.
func RetrySignal(err error) (ok bool, hint time.Duration) {
	var se *StatusError
	if errors.As(err, &se) {
		return retryable(se.Status), se.RetryAfter
	}
	return true, 0 // transport-level failure
}

// withRetry runs attempt until it succeeds or the client's
// resilience.Retrier ends the fetch, sleeping on the injected clock
// for each retry the Retrier schedules.
func (c *Client) withRetry(attempt func() error) error {
	r := resilience.Retrier{
		Attempts: c.retry.Attempts, Backoff: c.retry.Backoff, BackoffCap: c.retry.BackoffCap,
		Budget: c.res.Budget, Breaker: c.res.Breaker, Jitter: c.res.Jitter,
	}
	r.Begin()
	for {
		if !r.Allow(c.Now()) {
			return fmt.Errorf("%w (attempt %d)", ErrCircuitOpen, r.Attempt())
		}
		err := attempt()
		if err == nil {
			r.OnSuccess(c.Now())
			return nil
		}
		ok, hint := RetrySignal(err)
		step := r.OnFailure(c.Now(), ok, hint)
		switch step.Verdict {
		case resilience.Stop:
			return err
		case resilience.Exhausted:
			return fmt.Errorf("%w after %w", ErrBudgetExhausted, err)
		}
		if step.Hinted {
			c.waited.Add(1)
		}
		c.sleep(step.Delay)
	}
}

// get issues one GET with the tenant header attached, returning the
// response or a transport error.
func (c *Client) get(url string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if c.res.Tenant != "" {
		req.Header.Set(TenantHeader, c.res.Tenant)
	}
	return c.HTTP.Do(req)
}

// statusError builds the StatusError for a non-2xx response,
// capturing any Retry-After hint.
func statusError(resp *http.Response, msg string) *StatusError {
	return &StatusError{
		Status:     resp.StatusCode,
		RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		Msg:        msg,
	}
}

// hedgeResult is one racer's outcome in a hedged fetch.
type hedgeResult struct {
	n    int64
	rung string
	err  error
}

// hedged races do against a clone of itself launched after the hedge
// delay, returning whichever finishes first — unless the first
// finisher failed, in which case the other racer's result is awaited
// (it may still succeed). Goroutine count is bounded by the hedge
// fan-out (2), not by data size.
func (c *Client) hedged(do func() hedgeResult) hedgeResult {
	results := make(chan hedgeResult, 2)
	go func() { results <- do() }()
	timer := make(chan struct{})
	go func() {
		c.sleep(c.res.Hedge)
		close(timer)
	}()
	select {
	case r := <-results:
		return r
	case <-timer:
		c.hedges.Add(1)
		go func() { results <- do() }()
		r := <-results
		if r.err != nil {
			if r2 := <-results; r2.err == nil {
				return r2
			}
		}
		return r
	}
}
