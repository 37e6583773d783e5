package resilience_test

import (
	"math/rand"
	"net/http"
	"testing"
	"time"

	"coalqoe/internal/dash"
	"coalqoe/internal/resilience"
)

// retryStep is one scripted attempt: its outcome, and what the
// Retrier must decide about it.
type retryStep struct {
	begin    bool            // start a new fetch before this attempt
	fastFail bool            // the breaker must refuse the attempt
	err      error           // the attempt's outcome; nil succeeds
	want     resilience.Step // the decision after a failed attempt
}

func status(code int, hint time.Duration) error {
	return &dash.StatusError{Status: code, RetryAfter: hint, Msg: http.StatusText(code)}
}

func retryAfter(d time.Duration) resilience.Step {
	return resilience.Step{Verdict: resilience.Retry, Delay: d}
}

var stop = resilience.Step{Verdict: resilience.Stop}

// TestRetrierScripts walks scripted outcome sequences through a
// Retrier the way its callers do — Allow, attempt, then OnSuccess or
// OnFailure with dash's reading of the error — advancing the clock by
// each scheduled delay, and checks every decision.
func TestRetrierScripts(t *testing.T) {
	epoch := time.Unix(1700000000, 0)
	const base = 100 * time.Millisecond
	// The first draw of a fresh seed-7 lane: what a retry's jitter must
	// be if nothing drew from the lane before it.
	firstJitter := resilience.Jitter(rand.New(rand.NewSource(7)), base)

	cases := []struct {
		name  string
		r     resilience.Retrier
		steps []retryStep
		check func(t *testing.T, r *resilience.Retrier, now time.Time)
	}{{
		name: "non-retryable 4xx stops without spending budget",
		r: resilience.Retrier{Attempts: 3, Backoff: base, BackoffCap: time.Second,
			Budget: resilience.NewRetryBudget(resilience.BudgetConfig{Capacity: 2})},
		steps: []retryStep{{err: status(http.StatusNotFound, 0), want: stop}},
		check: func(t *testing.T, r *resilience.Retrier, _ time.Time) {
			if s := r.Budget.Stats(); s != (resilience.BudgetStats{}) || r.Budget.Tokens() != 2 {
				t.Errorf("budget touched by a non-retryable failure: %+v, %v tokens", s, r.Budget.Tokens())
			}
		},
	}, {
		name: "429 retries",
		r:    resilience.Retrier{Attempts: 3, Backoff: base, BackoffCap: time.Second},
		steps: []retryStep{
			{err: status(http.StatusTooManyRequests, 0), want: retryAfter(base)},
			{err: nil},
		},
	}, {
		name: "the final attempt stops",
		r:    resilience.Retrier{Attempts: 3, Backoff: base, BackoffCap: time.Second},
		steps: []retryStep{
			{err: status(http.StatusServiceUnavailable, 0), want: retryAfter(base)},
			{err: status(http.StatusServiceUnavailable, 0), want: retryAfter(2 * base)},
			{err: status(http.StatusServiceUnavailable, 0), want: stop},
		},
	}, {
		name: "an empty budget stops the fetch",
		r: resilience.Retrier{Attempts: 5, Backoff: base, BackoffCap: time.Second,
			Budget: resilience.NewRetryBudget(resilience.BudgetConfig{Capacity: 1})},
		steps: []retryStep{
			{err: status(http.StatusBadGateway, 0), want: retryAfter(base)},
			{err: status(http.StatusBadGateway, 0), want: resilience.Step{Verdict: resilience.Exhausted}},
		},
		check: func(t *testing.T, r *resilience.Retrier, _ time.Time) {
			if s := r.Budget.Stats(); s.Spent != 1 || s.Denied != 1 {
				t.Errorf("budget stats = %+v, want spent=1 denied=1", s)
			}
		},
	}, {
		name: "a hint smaller than the backoff is ignored",
		r:    resilience.Retrier{Attempts: 3, Backoff: 2 * time.Second, BackoffCap: 8 * time.Second},
		steps: []retryStep{
			{err: status(http.StatusServiceUnavailable, time.Second), want: retryAfter(2 * time.Second)},
		},
	}, {
		name: "a larger hint wins and counts as waited",
		r:    resilience.Retrier{Attempts: 3, Backoff: base, BackoffCap: time.Second},
		steps: []retryStep{
			{err: status(http.StatusServiceUnavailable, 3*time.Second),
				want: resilience.Step{Verdict: resilience.Retry, Delay: 3 * time.Second, Hinted: true}},
			// The hint does not advance the backoff schedule past one
			// doubling.
			{err: status(http.StatusServiceUnavailable, 0), want: retryAfter(2 * base)},
		},
	}, {
		name: "backoff caps at BackoffCap",
		r:    resilience.Retrier{Attempts: 6, Backoff: base, BackoffCap: 3 * base},
		steps: []retryStep{
			{err: status(http.StatusServiceUnavailable, 0), want: retryAfter(base)},
			{err: status(http.StatusServiceUnavailable, 0), want: retryAfter(2 * base)},
			{err: status(http.StatusServiceUnavailable, 0), want: retryAfter(3 * base)},
			{err: status(http.StatusServiceUnavailable, 0), want: retryAfter(3 * base)},
			{err: status(http.StatusServiceUnavailable, 0), want: retryAfter(3 * base)},
			{err: status(http.StatusServiceUnavailable, 0), want: stop},
		},
	}, {
		name: "a breaker fast-fail does not feed OnFailure",
		r: resilience.Retrier{Attempts: 5, Backoff: base, BackoffCap: time.Second,
			Breaker: resilience.NewBreaker(resilience.BreakerConfig{FailThreshold: 2, Cooldown: time.Second})},
		steps: []retryStep{
			{err: status(http.StatusServiceUnavailable, 0), want: retryAfter(base)},
			// The second failure (at +100ms) opens the circuit.
			{err: status(http.StatusServiceUnavailable, 0), want: retryAfter(2 * base)},
			{fastFail: true}, // at +300ms
		},
		check: func(t *testing.T, r *resilience.Retrier, now time.Time) {
			if s := r.Breaker.Stats(); s.Opens != 1 || s.FastFails != 1 {
				t.Errorf("breaker stats = %+v, want opens=1 fastfails=1", s)
			}
			// The cooldown still runs from the opening failure at +100ms:
			// a fast-fail fed back as a failure would have re-anchored it
			// at +300ms and refused this probe.
			if opened := now.Add(-2 * base); !r.Breaker.Allow(opened.Add(time.Second)) {
				t.Error("cooldown re-anchored by the fast-fail")
			}
		},
	}, {
		name: "jitter is drawn only when a retry is scheduled",
		r: resilience.Retrier{Attempts: 2, Backoff: base, BackoffCap: time.Second,
			Budget: resilience.NewRetryBudget(resilience.BudgetConfig{Capacity: 1}),
			Jitter: rand.New(rand.NewSource(7))},
		steps: []retryStep{
			{err: status(http.StatusForbidden, 0), want: stop},
			{begin: true, err: nil},
			{begin: true, err: status(http.StatusServiceUnavailable, 0), want: retryAfter(firstJitter)},
			{err: status(http.StatusServiceUnavailable, 0), want: stop},
			{begin: true, err: status(http.StatusServiceUnavailable, 0), want: resilience.Step{Verdict: resilience.Exhausted}},
		},
		check: func(t *testing.T, r *resilience.Retrier, _ time.Time) {
			lane := rand.New(rand.NewSource(7))
			lane.Float64()
			if got, want := r.Jitter.Float64(), lane.Float64(); got != want {
				t.Error("the jitter lane was drawn for a decision that scheduled no retry")
			}
		},
	}}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := c.r
			now := epoch
			r.Begin()
			for i, st := range c.steps {
				if st.begin {
					r.Begin()
				}
				if allowed := r.Allow(now); allowed == st.fastFail {
					t.Fatalf("step %d: breaker allowed=%v, want %v", i, allowed, !st.fastFail)
				} else if !allowed {
					continue
				}
				if st.err == nil {
					r.OnSuccess(now)
					continue
				}
				ok, hint := dash.RetrySignal(st.err)
				got := r.OnFailure(now, ok, hint)
				if got != st.want {
					t.Fatalf("step %d (attempt %d, %v): decision %+v, want %+v", i, r.Attempt(), st.err, got, st.want)
				}
				now = now.Add(got.Delay) // the caller waits out the delay
			}
			if c.check != nil {
				c.check(t, &r, now)
			}
		})
	}
}
