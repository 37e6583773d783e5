package loadgen

import (
	"bytes"
	"testing"
	"time"

	"coalqoe/internal/cdn"
	"coalqoe/internal/dash"
	"coalqoe/internal/faults"
)

// collapseConfig is the shared scenario of the A/B acceptance test: a
// 1000-player fleet whose steady demand (250 req/s) fits the server's
// capacity (~320 req/s at the top rung) with room to spare, hit by a
// 5-second total outage a quarter of the way in. What happens after
// the outage ends is the experiment.
func collapseConfig(protect *SimProtections) SimConfig {
	return SimConfig{
		Players:  1000,
		Tenants:  []string{"gold", "bronze"},
		Seed:     7,
		Duration: 60 * time.Second,
		SegDur:   4 * time.Second,
		Timeout:  1500 * time.Millisecond,
		RTT:      time.Millisecond,
		// The rebuffer sit-out after a failed fetch: identical in both
		// arms — the player model is the control, the server/client
		// defenses are the variable. A short pause models an impatient
		// player, the kind whose retry pressure makes storms possible.
		ErrorPause: 250 * time.Millisecond,
		Retry:      dash.RetryPolicy{Attempts: 4, Backoff: 100 * time.Millisecond, BackoffCap: 800 * time.Millisecond},
		Ladder: []SimRung{
			{ID: "240p30", Bytes: 250_000},
			{ID: "480p30", Bytes: 500_000},
			{ID: "1080p60", Bytes: 1_000_000},
		},
		Capacity:           16,
		ServiceFloor:       25 * time.Millisecond,
		ServiceBytesPerSec: 40 << 20,
		Faults: []faults.Window{
			{Kind: faults.NetOutage, Start: 10 * time.Second, Duration: 5 * time.Second, Severity: 1},
		},
		Protect: protect,
		Workers: 4,
	}
}

func fullProtections() *SimProtections {
	return &SimProtections{
		MaxQueue:   64,
		RetryAfter: time.Second,
		Quotas: []cdn.TenantQuota{
			{Name: "gold", Rate: 140, Burst: 140},
			{Name: "bronze", Rate: 140, Burst: 140},
		},
		BrownoutEnter:    0.1,
		BrownoutDemote:   2,
		CancelOnTimeout:  true,
		RetryBudget:      5,
		BreakerThreshold: 5,
		BreakerCooldown:  2 * time.Second,
		Jitter:           true,
	}
}

// TestSimMetastableCollapseAB is the acceptance A/B: with protections
// off, the post-outage retry wave drives queue wait past the client
// timeout and the fleet never recovers — every service is doomed work
// and tail goodput is zero. With the full resilience layer on, the
// same fleet under the same fault sheds, degrades, decorrelates, and
// recovers. CI runs this under -race.
func TestSimMetastableCollapseAB(t *testing.T) {
	unprot, err := RunSim(collapseConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	prot, err := RunSim(collapseConfig(fullProtections()))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("unprotected: attempts=%d served=%d doomed=%d bytes=%d tail(req=%d err=%d bytes=%d) p99=%.0fµs",
		unprot.Attempts, unprot.Served, unprot.Doomed, unprot.Bytes,
		unprot.TailRequests, unprot.TailErrors, unprot.TailBytes, unprot.Latency.Quantile(99))
	t.Logf("protected:   attempts=%d served=%d doomed=%d bytes=%d tail(req=%d err=%d bytes=%d) p99=%.0fµs",
		prot.Attempts, prot.Served, prot.Doomed, prot.Bytes,
		prot.TailRequests, prot.TailErrors, prot.TailBytes, prot.Latency.Quantile(99))

	// --- Unprotected arm: metastable collapse. ---
	// The recovery window (last 15s, long after the 5s outage ended)
	// delivers nothing: the queue outgrew the client timeout and every
	// completed service was for a player that had already given up.
	if unprot.TailBytes != 0 {
		t.Errorf("unprotected tail goodput = %d bytes, want 0 (collapse should be sustained)", unprot.TailBytes)
	}
	if unprot.TailRequests == 0 || unprot.TailErrors != unprot.TailRequests {
		t.Errorf("unprotected tail: %d/%d errors, want all of a busy tail failing",
			unprot.TailErrors, unprot.TailRequests)
	}
	if unprot.Doomed < 1000 {
		t.Errorf("unprotected doomed services = %d, want >= 1000 (the server burns coal, not diamonds)", unprot.Doomed)
	}
	if n := unprot.ErrorsByClass["timeout"]; n == 0 {
		t.Error("unprotected arm recorded no timeout-class errors")
	}

	// --- Protected arm: bounded, degraded, recovered. ---
	// Goodput floor: the tail flows at (near) the healthy demand rate.
	// 15s x 250 req/s x 250KB (worst case all-brownout) = ~900MB; ask
	// for a conservative fraction of that.
	if prot.TailBytes < 100<<20 {
		t.Errorf("protected tail goodput = %d bytes, want >= 100MiB (fleet should have recovered)", prot.TailBytes)
	}
	if rate := float64(prot.TailErrors) / float64(prot.TailRequests); rate > 0.05 {
		t.Errorf("protected tail error rate = %.3f, want <= 0.05 after recovery", rate)
	}
	// No doomed work: shed requests fail fast and queued waiters are
	// canceled, so the server never serves a departed client.
	if prot.Doomed != 0 {
		t.Errorf("protected doomed services = %d, want 0", prot.Doomed)
	}
	// Bounded p99: even fetches that failed through the storm resolve
	// within a few paced retries, far under the unprotected arm's
	// timeout chains.
	p99p, p99u := prot.Latency.Quantile(99), unprot.Latency.Quantile(99)
	if p99p >= 6e6 {
		t.Errorf("protected p99 = %.0fµs, want < 6s", p99p)
	}
	if 3*p99p >= 2*p99u {
		t.Errorf("protected p99 %.0fµs not clearly below unprotected %.0fµs", p99p, p99u)
	}
	// Retry amplification: the unprotected fleet hammers the server
	// harder for less goodput.
	if unprot.Attempts < prot.Attempts*3/2 {
		t.Errorf("retry amplification missing: unprotected %d attempts vs protected %d",
			unprot.Attempts, prot.Attempts)
	}
	if prot.Bytes < 2*unprot.Bytes {
		t.Errorf("protected goodput %d not well above unprotected %d", prot.Bytes, unprot.Bytes)
	}

	// The defenses all actually engaged.
	if prot.Governor.Shed == 0 || prot.ErrorsByClass["shed"] == 0 {
		t.Errorf("no shedding observed: governor=%d class=%d", prot.Governor.Shed, prot.ErrorsByClass["shed"])
	}
	if prot.Governor.BrownoutEntered < 1 {
		t.Error("brownout never engaged")
	}
	// Hysteresis bounds entries to roughly one per retry wave (the
	// fleet's breaker cooldowns re-probe every ~2s during recovery) —
	// not one per decision, which is what an unhysteretic trigger does.
	if prot.Governor.BrownoutEntered > 15 {
		t.Errorf("brownout oscillated: entered %d times (hysteresis should bound this)", prot.Governor.BrownoutEntered)
	}
	if prot.Governor.BrownoutExited < 1 {
		t.Error("brownout never exited after recovery")
	}
	if prot.PerRung["240p30"] == 0 {
		t.Error("no demoted segments served during brownout")
	}
	if prot.Resilience.BudgetDenied == 0 {
		t.Error("retry budgets never engaged")
	}
	if prot.Resilience.Opens == 0 || prot.Resilience.FastFails == 0 {
		t.Error("circuit breakers never engaged during the outage")
	}
	if prot.Resilience.Waited == 0 {
		t.Error("no retry honored a Retry-After hint")
	}

	// Fairness: the symmetric tenants split the recovered goodput —
	// neither is starved below its share.
	gold := prot.PerTenant["gold"]
	bronze := prot.PerTenant["bronze"]
	gOK, bOK := gold.Requests-gold.Errors, bronze.Requests-bronze.Errors
	lo, hi := gOK, bOK
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo == 0 || lo*2 < hi {
		t.Errorf("tenant starvation: gold %d vs bronze %d successful fetches", gOK, bOK)
	}
}

// TestSimByteIdenticalReports pins the determinism contract: the same
// config renders the same report byte for byte on repeated runs, and
// the Workers knob (merge parallelism) changes nothing at all.
func TestSimByteIdenticalReports(t *testing.T) {
	render := func(workers int) []byte {
		cfg := collapseConfig(fullProtections())
		cfg.Workers = workers
		res, err := RunSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteReport(&buf, res.Result); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	w1 := render(1)
	w8 := render(8)
	w8again := render(8)
	if !bytes.Equal(w1, w8) {
		t.Errorf("report differs between workers=1 and workers=8:\n--- w1 ---\n%s\n--- w8 ---\n%s", w1, w8)
	}
	if !bytes.Equal(w8, w8again) {
		t.Error("report differs between two workers=8 runs of the same config")
	}
	if len(w1) == 0 {
		t.Fatal("empty report")
	}
}

// TestSimHealthyBaseline covers the config-default path and verifies
// the run drains cleanly: a small unprotected fleet with no faults
// serves everything it asks for.
func TestSimHealthyBaseline(t *testing.T) {
	res, err := RunSim(SimConfig{Players: 50, Seed: 3, Duration: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("healthy baseline errors = %d, want 0 (classes: %v)", res.Errors, res.ErrorsByClass)
	}
	if res.Requests == 0 || res.Bytes == 0 {
		t.Fatalf("healthy baseline did nothing: %d requests, %d bytes", res.Requests, res.Bytes)
	}
	// 50 players on a 4s cadence over 20s: roughly 5 fetches each.
	if res.Requests < 200 || res.Requests > 300 {
		t.Errorf("requests = %d, want ~250", res.Requests)
	}
	if res.Doomed != 0 || res.TailBytes == 0 {
		t.Errorf("healthy baseline: doomed=%d tailBytes=%d", res.Doomed, res.TailBytes)
	}
	// Everyone gets the top rung when nothing is wrong.
	if res.PerRung["1080p60"] != res.Requests {
		t.Errorf("top-rung fetches = %d of %d", res.PerRung["1080p60"], res.Requests)
	}
}
