package resilience

import (
	"math/rand"
	"testing"
	"time"
)

func TestBudgetSpendAndDeny(t *testing.T) {
	b := NewRetryBudget(BudgetConfig{Capacity: 2})
	if !b.Allow() || !b.Allow() {
		t.Fatal("fresh budget must grant its full capacity")
	}
	if b.Allow() {
		t.Fatal("empty budget granted a retry")
	}
	if s := b.Stats(); s.Spent != 2 || s.Denied != 1 {
		t.Errorf("stats = %+v, want spent=2 denied=1", s)
	}
}

func TestBudgetRefillBySuccess(t *testing.T) {
	b := NewRetryBudget(BudgetConfig{Capacity: 3})
	for i := 0; i < 3; i++ {
		b.Allow()
	}
	if b.Allow() {
		t.Fatal("budget should be empty")
	}
	for i := 0; i < 9; i++ {
		b.OnSuccess()
	}
	if b.Allow() { // 0.9 tokens: still below a whole retry
		t.Fatal("nine successes granted a retry")
	}
	b.OnSuccess()
	if got := b.Tokens(); got != 1 {
		t.Fatalf("tokens = %v after ten successes, want exactly 1", got)
	}
	if !b.Allow() {
		t.Fatal("ten successes must buy one retry")
	}
	// Refills cap at capacity.
	for i := 0; i < 100; i++ {
		b.OnSuccess()
	}
	if b.Tokens() != 3 {
		t.Errorf("tokens = %v, want capped at 3", b.Tokens())
	}
}

func TestBudgetDisabledAndNil(t *testing.T) {
	b := NewRetryBudget(BudgetConfig{})
	for i := 0; i < 100; i++ {
		if !b.Allow() {
			t.Fatal("disabled budget must always grant")
		}
	}
	var nb *RetryBudget
	if !nb.Allow() {
		t.Error("nil budget must always grant")
	}
	nb.OnSuccess() // must not panic
	if s := nb.Stats(); s != (BudgetStats{}) {
		t.Errorf("nil stats = %+v", s)
	}
}

func TestBreakerOpensAtThreshold(t *testing.T) {
	now := time.Unix(1700000000, 0)
	br := NewBreaker(BreakerConfig{FailThreshold: 3, Cooldown: 2 * time.Second})
	for i := 0; i < 2; i++ {
		br.OnFailure(now)
		if br.State() != Closed {
			t.Fatalf("opened after %d failures", i+1)
		}
	}
	br.OnFailure(now)
	if br.State() != Open {
		t.Fatal("3rd consecutive failure must open the circuit")
	}
	if br.Allow(now.Add(time.Second)) {
		t.Error("open circuit allowed a request inside the cooldown")
	}
	if s := br.Stats(); s.Opens != 1 || s.FastFails != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestBreakerSuccessResetsRun(t *testing.T) {
	now := time.Unix(1700000000, 0)
	br := NewBreaker(BreakerConfig{FailThreshold: 3})
	br.OnFailure(now)
	br.OnFailure(now)
	br.OnSuccess(now)
	br.OnFailure(now)
	br.OnFailure(now)
	if br.State() != Closed {
		t.Error("non-consecutive failures must not open the circuit")
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	now := time.Unix(1700000000, 0)
	br := NewBreaker(BreakerConfig{FailThreshold: 1, Cooldown: 2 * time.Second})
	br.OnFailure(now)
	if br.State() != Open {
		t.Fatal("threshold 1 should open on first failure")
	}
	// Cooldown elapsed: exactly one probe is admitted.
	at := now.Add(2 * time.Second)
	if !br.Allow(at) {
		t.Fatal("cooldown elapsed: probe should be admitted")
	}
	if br.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open", br.State())
	}
	if br.Allow(at) {
		t.Error("second concurrent probe admitted")
	}
	// Probe success closes.
	br.OnSuccess(at)
	if br.State() != Closed || !br.Allow(at) {
		t.Error("probe success must close the circuit")
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	now := time.Unix(1700000000, 0)
	br := NewBreaker(BreakerConfig{FailThreshold: 1, Cooldown: time.Second})
	br.OnFailure(now)
	at := now.Add(time.Second)
	if !br.Allow(at) {
		t.Fatal("probe should be admitted")
	}
	br.OnFailure(at)
	if br.State() != Open {
		t.Fatal("failed probe must reopen")
	}
	// The fresh cooldown is anchored at the probe failure.
	if br.Allow(at.Add(500 * time.Millisecond)) {
		t.Error("reopened circuit honored the old cooldown anchor")
	}
	if !br.Allow(at.Add(time.Second)) {
		t.Error("fresh cooldown elapsed: probe should be admitted")
	}
	if s := br.Stats(); s.Opens != 2 || s.Probes != 2 {
		t.Errorf("stats = %+v, want opens=2 probes=2", s)
	}
}

func TestBreakerNil(t *testing.T) {
	var br *Breaker
	now := time.Unix(1700000000, 0)
	if !br.Allow(now) {
		t.Error("nil breaker must allow")
	}
	br.OnSuccess(now)
	br.OnFailure(now)
	if br.State() != Closed {
		t.Error("nil breaker state should read closed")
	}
}

func TestJitterRangeAndDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	d := 100 * time.Millisecond
	var seq []time.Duration
	for i := 0; i < 1000; i++ {
		j := Jitter(rng, d)
		if j < d/2 || j >= d+d/2 {
			t.Fatalf("jitter %v outside [%v, %v)", j, d/2, d+d/2)
		}
		seq = append(seq, j)
	}
	rng2 := rand.New(rand.NewSource(42))
	for i, want := range seq {
		if got := Jitter(rng2, d); got != want {
			t.Fatalf("jitter not deterministic at %d: %v vs %v", i, got, want)
		}
	}
	// Nil generator and non-positive durations pass through.
	if Jitter(nil, d) != d {
		t.Error("nil rng must pass through")
	}
	if Jitter(rng, 0) != 0 {
		t.Error("zero duration must pass through")
	}
}
