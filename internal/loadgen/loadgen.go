// Package loadgen is the closed-loop load generator for the streaming
// backend: thousands of concurrent simulated DASH players walking one
// manifest against one server process, each choosing rungs with a
// simple rate rule and recording per-request latency into mergeable
// stats.QuantileSketches. It is the client-side half the Zoom/Webex/
// Meet measurement study template asks for — a fleet of instrumented
// clients whose delivery metrics (throughput, tail latency, error
// rate) are correlated with what the server's own /metrics reports
// (hit rate, coalescing, injected faults).
//
// Closed-loop means each player issues its next request the moment
// the previous response completes: offered load follows service
// capacity, so the measured latency distribution is the server's, not
// an open-loop queue's. Players reuse dash.Client (including its
// retry policy, so server-side chaos exercises the same backoff paths
// the simulated sessions carry).
//
// Concurrency discipline (the invariants coalvet enforces): every
// player owns a private recorder — sketch, counters, per-rung map —
// indexed by player number; the coordinator merges them only after
// wg.Wait. Player seeds come from FNV identity lanes (study.UserSeed
// idiom), never index arithmetic. The wall clock is injected (Now and
// Sleep in Config), wired from the binary's main package.
package loadgen

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"coalqoe/internal/dash"
	"coalqoe/internal/resilience"
	"coalqoe/internal/stats"
)

// Latency sketch schema: microseconds over [0, 10s) in 50µs bins,
// exact below 4096 observations. All player sketches share it so they
// merge; the merged fleet sketch is exact for small runs and bounded
// (±50µs) at scale.
const (
	sketchLoUS     = 0
	sketchHiUS     = 10e6
	sketchBins     = 200000
	sketchExactCap = 4096
)

// newLatencySketch builds a sketch of the shared schema.
func newLatencySketch() *stats.QuantileSketch {
	return stats.NewQuantileSketch(sketchLoUS, sketchHiUS, sketchBins, sketchExactCap)
}

// Config shapes one load run.
type Config struct {
	// BaseURL is the dashserve process under test.
	BaseURL string
	// Players is the number of concurrent closed-loop players.
	Players int
	// Duration bounds the run in wall time (default 5s).
	Duration time.Duration
	// MaxSegments caps the segments each player fetches; 0 means
	// duration-bound only. Tests use it for exact request counts.
	MaxSegments int
	// Seed feeds the per-player FNV lanes (start offsets).
	Seed int64
	// Retry arms each player's dash.Client; zero Attempts leaves the
	// client single-attempt.
	Retry dash.RetryPolicy
	// RateSafety scales the measured throughput before rung selection
	// (default 0.8): pick the highest rung whose bitrate fits inside
	// safety x measured rate, the classic rate-based ABR rule.
	RateSafety float64

	// Tenants assigns players to tenants round-robin (player i gets
	// Tenants[i%len]), sent as the X-Tenant header so the server's
	// governor can meter them. Empty means no tenant identity.
	Tenants []string
	// RetryBudget arms a per-player retry budget of this many tokens
	// (refilled by successes); 0 leaves retries unmetered.
	RetryBudget float64
	// BreakerThreshold arms a per-player circuit breaker opening after
	// this many consecutive failures; 0 disables breaking.
	BreakerThreshold int
	// BreakerCooldown is the open-circuit cooldown (default 2s when a
	// breaker is armed).
	BreakerCooldown time.Duration
	// Jitter spreads each player's retry backoff ×[0.5,1.5) on its own
	// seed lane, decorrelating the fleet's retry waves.
	Jitter bool
	// Hedge launches a duplicate segment request when the first has
	// not finished after this delay; 0 disables hedging.
	Hedge time.Duration
	// ErrorPause is how long a player sits out after a failed fetch
	// (jittered on its lane). A closed loop with no error pause
	// busy-spins rejections at network speed — the exact retry-storm
	// shape the resilience layer exists to stop; a pause models the
	// rebuffer wait a real player would take. 0 keeps the old
	// immediate-continue behavior.
	ErrorPause time.Duration

	// Now and Sleep inject the wall clock (time.Now / time.Sleep from
	// the binary's main package; tests may fake them). Both required.
	Now   func() time.Time
	Sleep func(time.Duration)
}

// TenantResult is one tenant's slice of the run.
type TenantResult struct {
	Players  int
	Requests int64
	Errors   int64
	Bytes    int64
}

// ClientResilience aggregates the fleet's client-side defense
// counters — the client.retrybudget.* / client.breaker.* /
// client.hedge.* families of the report.
type ClientResilience struct {
	BudgetSpent  int64 // retries paid for by the budget
	BudgetDenied int64 // retries refused on empty budgets
	Opens        int64 // circuit-breaker trips
	FastFails    int64 // requests refused locally while open
	Probes       int64 // half-open probes
	Hedges       int64 // hedged duplicates launched
	Waited       int64 // retries paced by a server Retry-After hint
}

// Result is the merged outcome of a run.
type Result struct {
	Players  int
	Elapsed  time.Duration
	Requests int64
	Errors   int64
	Bytes    int64
	// Latency holds every request's wall latency in microseconds
	// (including retries and backoff — the stall a player felt).
	Latency *stats.QuantileSketch
	// PerRung counts successful fetches per representation id.
	PerRung map[string]int64
	// ErrorsByClass splits Errors by dash.Classify: "server protected
	// itself" (shed) reads very differently from "server fell over"
	// (http5xx) in an overload experiment.
	ErrorsByClass map[string]int64
	// PerTenant slices the run by tenant (nil when Config.Tenants was
	// empty).
	PerTenant map[string]TenantResult
	// Resilience aggregates the players' client-side defense counters.
	Resilience ClientResilience
	// ServerMetrics is the server's /metrics snapshot taken after the
	// run (nil if the caller did not fetch it).
	ServerMetrics map[string]float64
}

// RequestsPerSec returns the sustained request throughput.
func (r *Result) RequestsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Elapsed.Seconds()
}

// BitsPerSec returns the sustained delivery throughput.
func (r *Result) BitsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) * 8 / r.Elapsed.Seconds()
}

// ErrorRate returns the fraction of requests that failed after
// exhausting retries.
func (r *Result) ErrorRate() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Errors) / float64(r.Requests)
}

// CacheHitRate extracts the server-side cache hit rate from the
// /metrics snapshot; ok is false when the server ran without a cache
// (or the snapshot was never fetched).
func (r *Result) CacheHitRate() (float64, bool) {
	v, ok := r.ServerMetrics["dash.cache.hit_rate"]
	return v, ok
}

// playerSeed derives one player's seed lane from the run seed — an
// FNV identity hash, the same idiom as study.UserSeed, so lanes are
// independent (index arithmetic would correlate neighbors).
func playerSeed(seed int64, player int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "loadgen|player|%d", player)
	return seed + int64(h.Sum64()&0x7fffffff)
}

// armPlayer builds one player's client-side defenses: a retry budget
// of budget tokens, a breaker opening after threshold consecutive
// failures, and — with jitter — a backoff-jitter stream on the
// player's seed lane. Zero values leave a defense off. The jitter
// stream is a second rand stream on the lane (playerSeed ^ 0x6a09e667)
// so its draws never perturb the start-offset stream. Run and RunSim
// both arm their players here: a seed arms the same player in each.
func armPlayer(seed int64, player int, budget float64, threshold int, cooldown time.Duration, jitter bool) dash.Resilience {
	var res dash.Resilience
	if budget > 0 {
		res.Budget = resilience.NewRetryBudget(resilience.BudgetConfig{Capacity: budget})
	}
	if threshold > 0 {
		res.Breaker = resilience.NewBreaker(resilience.BreakerConfig{
			FailThreshold: threshold,
			Cooldown:      cooldown,
		})
	}
	if jitter {
		res.Jitter = rand.New(rand.NewSource(playerSeed(seed, player) ^ 0x6a09e667))
	}
	return res
}

// recorder is one player's private metrics — written only by that
// player (its goroutine, or the sim's event loop), folded into the
// Result only after the run.
type recorder struct {
	requests int64
	errors   int64
	bytes    int64
	latency  *stats.QuantileSketch
	perRung  map[string]int64
	// errClasses counts failures by dash.ErrorClasses position — a
	// fixed-order slice, so merging needs no map iteration.
	errClasses []int64
}

func newRecorder() recorder {
	return recorder{
		latency:    newLatencySketch(),
		perRung:    make(map[string]int64),
		errClasses: make([]int64, len(dash.ErrorClasses)),
	}
}

// classIndex maps a dash error class to its errClasses slot.
var classIndex = func() map[string]int {
	m := make(map[string]int, len(dash.ErrorClasses))
	for i, c := range dash.ErrorClasses {
		m[c] = i
	}
	return m
}()

// add folds src into r. rungs fixes the per-rung key order.
func (r *recorder) add(src *recorder, rungs []string) {
	r.requests += src.requests
	r.errors += src.errors
	r.bytes += src.bytes
	r.latency.Merge(src.latency)
	for _, id := range rungs {
		if n := src.perRung[id]; n > 0 {
			r.perRung[id] += n
		}
	}
	for ci := range src.errClasses {
		r.errClasses[ci] += src.errClasses[ci]
	}
}

// add folds one player's defense counters in.
func (c *ClientResilience) add(cs dash.ClientStats) {
	c.BudgetSpent += cs.Budget.Spent
	c.BudgetDenied += cs.Budget.Denied
	c.Opens += cs.Breaker.Opens
	c.FastFails += cs.Breaker.FastFails
	c.Probes += cs.Breaker.Probes
	c.Hedges += cs.Hedges
	c.Waited += cs.Waited
}

// foldRecorders folds the per-player recorders into a Result — the one
// fold Run and RunSim share. Each of workers goroutines folds a
// contiguous player range into a partial, and the partials fold in
// index order: integer addition and sketch merges over fixed schemas,
// so the outcome is identical for every worker count. rungs fixes the
// per-rung key order, tenants (if any) adds the per-tenant split, and
// defenses(i) reads player i's client-side defense counters.
func foldRecorders(recs []recorder, rungs, tenants []string, workers int, defenses func(player int) dash.ClientStats) *Result {
	if workers > len(recs) {
		workers = len(recs)
	}
	partials := make([]recorder, workers)
	var wg sync.WaitGroup
	// Goroutine count is bounded by workers, a configured capacity.
	for w := 0; w < workers; w++ {
		partials[w] = newRecorder()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo, hi := w*len(recs)/workers, (w+1)*len(recs)/workers
			for i := lo; i < hi; i++ {
				partials[w].add(&recs[i], rungs)
			}
		}(w)
	}
	wg.Wait()
	total := &partials[0]
	for w := 1; w < workers; w++ {
		total.add(&partials[w], rungs)
	}

	res := &Result{
		Players:       len(recs),
		Requests:      total.requests,
		Errors:        total.errors,
		Bytes:         total.bytes,
		Latency:       total.latency,
		PerRung:       total.perRung,
		ErrorsByClass: make(map[string]int64),
	}
	for ci, class := range dash.ErrorClasses {
		if n := total.errClasses[ci]; n > 0 {
			res.ErrorsByClass[class] = n
		}
	}
	if len(tenants) > 0 {
		res.PerTenant = make(map[string]TenantResult, len(tenants))
	}
	for i := range recs {
		res.Resilience.add(defenses(i))
		if res.PerTenant != nil {
			rec, name := &recs[i], tenantAt(tenants, i)
			tr := res.PerTenant[name]
			tr.Players++
			tr.Requests += rec.requests
			tr.Errors += rec.errors
			tr.Bytes += rec.bytes
			res.PerTenant[name] = tr
		}
	}
	return res
}

// tenantAt assigns tenants round-robin ("" without a tenant model).
func tenantAt(tenants []string, player int) string {
	if len(tenants) == 0 {
		return ""
	}
	return tenants[player%len(tenants)]
}

// pickRung returns the highest-bitrate representation whose bitrate
// fits the budget, falling back to the lowest rung. reps must be
// sorted by ascending bitrate.
func pickRung(reps []dash.RungDTO, budgetBPS float64) dash.RungDTO {
	best := reps[0]
	for _, rep := range reps[1:] {
		if rep.Bitrate <= budgetBPS {
			best = rep
		}
	}
	return best
}

// Run executes the load: fetches the manifest once, spawns
// Config.Players closed-loop players, and merges their recorders.
// The player count is a configured capacity, not a data size, so
// goroutine creation is bounded by construction.
func Run(cfg Config) (*Result, error) {
	if cfg.Now == nil || cfg.Sleep == nil {
		panic("loadgen: Config needs Now and Sleep; pass time.Now/time.Sleep from the binary's main package")
	}
	if cfg.Players <= 0 {
		cfg.Players = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.RateSafety <= 0 {
		cfg.RateSafety = 0.8
	}

	// One shared transport sized for the fleet: the default transport
	// keeps 2 idle conns per host, which at 1000 players would churn
	// a connection (and an ephemeral port) per request.
	transport := &http.Transport{
		MaxIdleConns:        cfg.Players + 16,
		MaxIdleConnsPerHost: cfg.Players + 16,
		IdleConnTimeout:     90 * time.Second,
	}
	defer transport.CloseIdleConnections()

	newClient := func() *dash.Client {
		c := dash.NewClient(cfg.BaseURL, cfg.Now)
		c.HTTP = &http.Client{Transport: transport, Timeout: 30 * time.Second}
		if cfg.Retry.Attempts > 0 {
			c.SetRetry(cfg.Retry, cfg.Sleep)
		} else if cfg.Hedge > 0 {
			// Hedging needs the injected sleep even without retries.
			c.SetRetry(dash.RetryPolicy{Attempts: 1}, cfg.Sleep)
		}
		return c
	}

	manifest, err := newClient().FetchManifest()
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	if len(manifest.Representations) == 0 {
		return nil, fmt.Errorf("loadgen: manifest has no representations")
	}
	reps := append([]dash.RungDTO(nil), manifest.Representations...)
	sort.Slice(reps, func(i, j int) bool {
		if reps[i].Bitrate != reps[j].Bitrate {
			return reps[i].Bitrate < reps[j].Bitrate
		}
		return reps[i].ID < reps[j].ID
	})
	nsegs := int(manifest.DurationSec / manifest.SegmentDuration)
	if nsegs <= 0 {
		nsegs = 1
	}

	recorders := make([]recorder, cfg.Players)
	for i := range recorders {
		recorders[i] = newRecorder()
	}
	// Clients live in a coordinator-owned slice (bounded by Players, a
	// configured capacity) so their resilience counters survive the
	// players and merge after the drain.
	clients := make([]*dash.Client, cfg.Players)
	for i := range clients {
		clients[i] = newClient()
	}

	start := cfg.Now()
	deadline := start.Add(cfg.Duration)
	done := make(chan int, cfg.Players)
	for i := 0; i < cfg.Players; i++ {
		go func(i int) {
			defer func() { done <- i }()
			runPlayer(&cfg, clients[i], reps, nsegs, i, deadline, &recorders[i])
		}(i)
	}
	for i := 0; i < cfg.Players; i++ {
		<-done
	}
	elapsed := cfg.Now().Sub(start)

	rungs := make([]string, len(reps))
	for i, rep := range reps {
		rungs[i] = rep.ID
	}
	res := foldRecorders(recorders, rungs, cfg.Tenants, 1,
		func(i int) dash.ClientStats { return clients[i].ResilienceStats() })
	res.Elapsed = elapsed
	return res, nil
}

// runPlayer is one closed-loop player: walk segments from a seeded
// start offset, measure each fetch, adapt the rung to the measured
// rate, stop at the deadline (or segment cap). The player's retry
// budget, breaker, and jitter all ride its own FNV seed lane.
func runPlayer(cfg *Config, client *dash.Client, reps []dash.RungDTO, nsegs, player int, deadline time.Time, rec *recorder) {
	rng := rand.New(rand.NewSource(playerSeed(cfg.Seed, player)))
	res := armPlayer(cfg.Seed, player, cfg.RetryBudget, cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Jitter)
	res.Tenant, res.Hedge = tenantAt(cfg.Tenants, player), cfg.Hedge
	client.SetResilience(res)
	seg := rng.Intn(nsegs)
	rep := reps[0] // start conservative, like a cold player
	ewmaBPS := 0.0
	for n := 0; cfg.MaxSegments == 0 || n < cfg.MaxSegments; n++ {
		if !cfg.Now().Before(deadline) {
			return
		}
		size, dur, err := client.FetchSegment(rep.ID, seg)
		rec.requests++
		if dur > 0 {
			rec.latency.Add(float64(dur.Microseconds()))
		} else if err == nil {
			rec.latency.Add(0)
		}
		if err != nil {
			rec.errors++
			rec.errClasses[classIndex[dash.Classify(err)]]++
			// Back to the bottom rung after a failure, like the player
			// model's cold restart.
			rep = reps[0]
			ewmaBPS = 0
			if cfg.ErrorPause > 0 {
				// Sit out the rebuffer, jittered so the fleet's failed
				// players don't come back as one wave.
				cfg.Sleep(resilience.Jitter(res.Jitter, cfg.ErrorPause))
			}
			continue
		}
		rec.bytes += int64(size)
		rec.perRung[rep.ID]++
		if dur > 0 {
			rate := float64(size) * 8 / dur.Seconds()
			if ewmaBPS == 0 {
				ewmaBPS = rate
			} else {
				ewmaBPS = 0.5*ewmaBPS + 0.5*rate
			}
			rep = pickRung(reps, cfg.RateSafety*ewmaBPS)
		}
		seg = (seg + 1) % nsegs
	}
}
