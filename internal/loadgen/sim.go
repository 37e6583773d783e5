// Virtual-time fleet simulator: the deterministic half of the overload
// experiment. The HTTP loadgen (loadgen.go) measures a real serving
// path, so its latencies carry scheduler and network noise; the
// simulator replays the same player model — closed-loop segment
// fetches, retry budgets, breakers, jittered backoff, Retry-After
// honoring — against the same real server-side defenses (cdn.Governor
// admission/quota/brownout, cdn.Chaos fault windows) on a
// simclock.Clock — the same discrete-event kernel that drives the
// device model — instead of goroutines and sockets. Time is virtual:
// the whole 1000-player minute runs in milliseconds, and the same
// SimConfig produces byte-identical reports on every run at any
// Workers count. Each player's retry decisions come from a
// resilience.Retrier, the state machine dash.Client runs on the real
// HTTP path; the sim schedules an event where the client sleeps.
//
// The A/B this engine exists to stage is the metastable collapse the
// overload literature (and the paper's memory-pressure story) warns
// about. Unprotected (Protect == nil), the server keeps an unbounded
// FIFO in front of its service slots and never notices abandoned
// clients: after a fault window the retry wave drives queue wait past
// the client timeout, every completed service is for a caller that
// already gave up (doomed work), and goodput pins to zero even though
// the server is saturated with effort — coal, not diamonds. Protected,
// the governor sheds the excess fast with a Retry-After hint, cancels
// abandoned waiters, brownout trades bitrate for capacity, and client
// budgets/jitter decorrelate the wave: the fleet recovers.
//
// Determinism contract (LINTING.md): the clock dispatches in (virtual
// time, scheduling order); all player state machines run on the single
// event-loop goroutine; Workers parallelizes only the final recorder
// fold, which is commutative integer addition over fixed schemas and
// therefore identical for every partition.
package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"coalqoe/internal/cdn"
	"coalqoe/internal/dash"
	"coalqoe/internal/faults"
	"coalqoe/internal/resilience"
	"coalqoe/internal/simclock"
	"coalqoe/internal/telemetry"
)

// simEpoch anchors the virtual clock. Any fixed instant works — the
// governor, chaos gate, and breakers only ever subtract times.
var simEpoch = time.Unix(1700000000, 0)

// SimRung is one ladder entry in the simulated manifest: an id for the
// report and a segment size that sets its service cost.
type SimRung struct {
	ID    string
	Bytes int64
}

// SimProtections is the "B" arm of the experiment: the server- and
// client-side defenses under test. A nil *SimProtections in SimConfig
// runs the unprotected baseline — unbounded queue, oblivious server,
// bare retries.
type SimProtections struct {
	// MaxQueue bounds the admission queue (0 picks the governor default
	// of 4x capacity). The unprotected arm's queue is effectively
	// unbounded instead.
	MaxQueue int
	// RetryAfter is the shed hint (governor default 1s when zero).
	RetryAfter time.Duration
	// Quotas meters tenants (cdn.Governor semantics).
	Quotas []cdn.TenantQuota
	// BrownoutEnter/BrownoutDemote arm quality-for-capacity degradation
	// (cdn.Governor semantics; zero Enter disables).
	BrownoutEnter  float64
	BrownoutDemote int
	// CancelOnTimeout withdraws a queued request when its client times
	// out, instead of letting the server serve it to nobody.
	CancelOnTimeout bool

	// RetryBudget arms a per-player success-refilled retry budget.
	RetryBudget float64
	// BreakerThreshold/BreakerCooldown arm a per-player circuit breaker.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Jitter spreads retry backoff x[0.5,1.5) on each player's lane.
	Jitter bool
}

// SimConfig shapes one virtual-time run.
type SimConfig struct {
	// Players is the fleet size; Tenants assigns them round-robin
	// (player i gets Tenants[i%len]); Seed feeds the FNV lanes.
	Players int
	Tenants []string
	Seed    int64

	// Duration is the virtual run length (default 30s): players start
	// no new fetches after it, in-flight work drains. SegDur is the
	// per-player request cadence (default 4s). Timeout is the client's
	// per-attempt deadline (default 2s). RTT is the modeled network
	// round trip (default 1ms; must stay positive so virtual time
	// always advances). ErrorPause is the jittered sit-out after a
	// failed fetch (default RTT).
	Duration   time.Duration
	SegDur     time.Duration
	Timeout    time.Duration
	RTT        time.Duration
	ErrorPause time.Duration

	// Retry is the capped-exponential policy (dash.Client semantics:
	// Attempts total tries, Backoff doubling to BackoffCap).
	Retry dash.RetryPolicy

	// Ladder is the bitrate ladder, ascending; players request the top
	// rung and brownout demotes down it. Empty picks a 3-rung default.
	Ladder []SimRung

	// Capacity is the server's concurrent service slots (default 16).
	// Each slot serves a segment in ServiceFloor + Bytes/ServiceBytesPerSec
	// (defaults 25ms + bytes/40MB/s).
	Capacity           int
	ServiceFloor       time.Duration
	ServiceBytesPerSec float64

	// Faults is the chaos schedule on the virtual clock (cdn.Chaos
	// semantics; the horizon is the run duration, so windows do not
	// repeat within a run).
	Faults []faults.Window

	// Protect arms the defenses; nil runs the unprotected baseline.
	Protect *SimProtections

	// Workers parallelizes the final recorder merge (default 1). Any
	// value yields byte-identical results; it exists so the race
	// detector exercises the merge and so huge fleets merge faster.
	Workers int
}

// SimResult is a Result plus the simulator-only observables the A/B
// assertions need.
type SimResult struct {
	*Result
	// Attempts counts server-touching tries (retries included) — the
	// retry-amplification numerator.
	Attempts int64
	// Doomed counts services completed for clients that had already
	// timed out: work the server paid for that helped nobody.
	Doomed int64
	// Served counts services delivered to a live client.
	Served int64
	// Tail* cover the last quarter of the run — the recovery window.
	// A fleet that recovered has TailBytes flowing; one stuck in
	// metastable collapse has tail errors and nothing else.
	TailRequests int64
	TailErrors   int64
	TailBytes    int64
	// Governor snapshots the admission controller's ledger.
	Governor cdn.GovernorStats
}

// simReq is one server-touching attempt: queued, in service, or done.
type simReq struct {
	player      int
	ticket      *cdn.Ticket
	originDelay time.Duration
	abandoned   bool // client timed out; any service is doomed
	done        bool // finished, canceled, or delivered
	servedRung  int
	bytes       int64
}

// simPlayer is one player's state machine.
type simPlayer struct {
	tenant string
	retry  resilience.Retrier
	waited int64

	dueAt   time.Duration // when the next segment is wanted
	opStart time.Duration // first attempt of the current fetch

	// failErr is the failed attempt whose response is still crossing
	// the network to the player. A player waits on at most one live
	// attempt (abandoned ones never report back), so one slot suffices.
	failErr error

	// The player's event callbacks, built once: start a fetch, retry
	// it, and deliver failErr.
	startFn, retryFn, failFn func()
}

// sim is the engine. Everything below runs on one goroutine until the
// final fold.
type sim struct {
	cfg   SimConfig
	clk   *simclock.Clock
	gov   *cdn.Governor
	chaos *cdn.Chaos
	// chaosDelay captures injected latency from the chaos gate's sleep
	// hook (MemSpike windows) for the attempt being evaluated.
	chaosDelay time.Duration

	tickets   map[*cdn.Ticket]*simReq
	players   []simPlayer
	recorders []recorder

	attempts  int64
	doomed    int64
	served    int64
	tailReqs  int64
	tailErrs  int64
	tailBytes int64
}

// RunSim executes one virtual-time run and returns its merged result.
// Deterministic: the same config (including Workers) and seed produce
// a byte-identical WriteReport rendering, and changing Workers alone
// changes nothing but merge parallelism.
func RunSim(cfg SimConfig) (*SimResult, error) {
	s, err := newSim(cfg)
	if err != nil {
		return nil, err
	}
	return s.run(), nil
}

// newSim applies the config defaults, builds the server and the fleet,
// and schedules every player's first fetch.
func newSim(cfg SimConfig) (*sim, error) {
	if cfg.Players <= 0 {
		return nil, fmt.Errorf("loadgen: sim needs at least one player")
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 30 * time.Second
	}
	if cfg.SegDur <= 0 {
		cfg.SegDur = 4 * time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.RTT <= 0 {
		cfg.RTT = time.Millisecond
	}
	if cfg.ErrorPause <= 0 {
		cfg.ErrorPause = cfg.RTT
	}
	if cfg.Retry.Attempts <= 0 {
		cfg.Retry.Attempts = 1
	}
	if cfg.Retry.Backoff <= 0 {
		cfg.Retry.Backoff = 100 * time.Millisecond
	}
	if cfg.Retry.BackoffCap <= 0 {
		cfg.Retry.BackoffCap = 2 * time.Second
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 16
	}
	if cfg.ServiceFloor <= 0 {
		cfg.ServiceFloor = 25 * time.Millisecond
	}
	if cfg.ServiceBytesPerSec <= 0 {
		cfg.ServiceBytesPerSec = 40 << 20
	}
	if len(cfg.Ladder) == 0 {
		cfg.Ladder = []SimRung{
			{ID: "240p30", Bytes: 250_000},
			{ID: "480p30", Bytes: 500_000},
			{ID: "1080p60", Bytes: 1_000_000},
		}
	}
	ladder := append([]SimRung(nil), cfg.Ladder...)
	sort.SliceStable(ladder, func(i, j int) bool { return ladder[i].Bytes < ladder[j].Bytes })
	cfg.Ladder = ladder
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}

	// The clock's own Rand is never drawn from: every random draw rides
	// a player's seed lane.
	s := &sim{cfg: cfg, clk: simclock.New(cfg.Seed), tickets: make(map[*cdn.Ticket]*simReq)}

	gcfg := cdn.GovernorConfig{MaxInflight: cfg.Capacity}
	if p := cfg.Protect; p != nil {
		gcfg.MaxQueue = p.MaxQueue
		gcfg.RetryAfter = p.RetryAfter
		gcfg.Quotas = p.Quotas
		gcfg.BrownoutEnter = p.BrownoutEnter
		gcfg.BrownoutDemote = p.BrownoutDemote
	} else {
		// The unprotected baseline: a queue deep enough that nothing is
		// ever shed — every player can park many abandoned requests.
		gcfg.MaxQueue = cfg.Players * 64
	}
	s.gov = cdn.NewGovernor(gcfg, s.vtime)
	s.chaos = cdn.NewChaosFromWindows(cfg.Faults, cfg.Seed, cfg.Duration,
		s.vtime, func(d time.Duration) { s.chaosDelay += d })

	s.players = make([]simPlayer, cfg.Players)
	s.recorders = make([]recorder, cfg.Players)
	for i := range s.players {
		p := &s.players[i]
		p.tenant = tenantAt(cfg.Tenants, i)
		var arms dash.Resilience
		if pr := cfg.Protect; pr != nil {
			arms = armPlayer(cfg.Seed, i, pr.RetryBudget, pr.BreakerThreshold, pr.BreakerCooldown, pr.Jitter)
		}
		p.retry = resilience.Retrier{
			Attempts: cfg.Retry.Attempts, Backoff: cfg.Retry.Backoff, BackoffCap: cfg.Retry.BackoffCap,
			Budget: arms.Budget, Breaker: arms.Breaker, Jitter: arms.Jitter,
		}
		player := i
		p.startFn = func() { s.startFetch(player) }
		p.retryFn = func() { s.fireAttempt(player) }
		p.failFn = func() {
			err := p.failErr
			p.failErr = nil
			s.attemptFailed(player, err)
		}
		s.recorders[i] = newRecorder()
		rng := rand.New(rand.NewSource(playerSeed(cfg.Seed, i)))
		p.dueAt = time.Duration(rng.Int63n(int64(cfg.SegDur)))
		s.clk.At(p.dueAt, p.startFn)
	}
	return s, nil
}

// vtime is the current virtual instant as a time.Time, for the
// governor, chaos gate and breakers.
func (s *sim) vtime() time.Time { return simEpoch.Add(s.clk.Now()) }

// inTail reports whether the current instant is in the recovery window
// (the last quarter of the configured run).
func (s *sim) inTail() bool { return 4*s.clk.Now() >= 3*s.cfg.Duration }

// startFetch begins the player's next segment fetch, unless the run is
// over.
func (s *sim) startFetch(player int) {
	if s.clk.Now() >= s.cfg.Duration {
		return
	}
	p := &s.players[player]
	p.opStart = s.clk.Now()
	p.retry.Begin()
	s.fireAttempt(player)
}

// fireAttempt runs one fetch attempt: breaker gate, chaos gate,
// admission, then service or a failure delivered one RTT later.
func (s *sim) fireAttempt(player int) {
	p := &s.players[player]
	if !p.retry.Allow(s.vtime()) {
		s.finishFetch(player, nil, fmt.Errorf("%w (attempt %d)", dash.ErrCircuitOpen, p.retry.Attempt()))
		return
	}
	s.attempts++

	s.chaosDelay = 0
	eff := s.chaos.Gate()
	rtt := s.cfg.RTT + s.chaosDelay
	if eff.Status != 0 {
		s.failAfter(player, rtt, &dash.StatusError{Status: eff.Status, Msg: fmt.Sprintf("sim: chaos %d", eff.Status)})
		return
	}

	d := s.gov.Admit(p.tenant)
	switch d.Kind {
	case cdn.Shed:
		s.failAfter(player, rtt, &dash.StatusError{Status: d.Status, RetryAfter: dash.RetryAfterHint(d.RetryAfter),
			Msg: fmt.Sprintf("sim: shed %d", d.Status)})
	case cdn.Admitted, cdn.Queued:
		req := &simReq{player: player, ticket: d.Ticket, originDelay: eff.OriginDelay}
		if d.Kind == cdn.Admitted {
			s.startService(req, d.Demote)
		} else {
			s.tickets[d.Ticket] = req
		}
		s.clk.Schedule(s.cfg.Timeout, func() { s.timeoutFired(req) })
	}
}

// failAfter delivers a failed attempt's response to its player after
// the given network delay.
func (s *sim) failAfter(player int, delay time.Duration, err error) {
	p := &s.players[player]
	p.failErr = err
	s.clk.Schedule(delay, p.failFn)
}

// startService begins serving req on the slot the governor granted,
// applying any brownout demotion to the served rung.
func (s *sim) startService(req *simReq, demote int) {
	idx := len(s.cfg.Ladder) - 1 - demote
	if idx < 0 {
		idx = 0
	}
	req.servedRung = idx
	req.bytes = s.cfg.Ladder[idx].Bytes
	dur := s.cfg.ServiceFloor + req.originDelay +
		time.Duration(float64(req.bytes)/s.cfg.ServiceBytesPerSec*float64(time.Second))
	s.clk.Schedule(s.cfg.RTT+dur, func() { s.serviceDone(req) })
}

// serviceDone completes one service: hand the freed slot to the
// round-robin queue, then deliver the bytes — unless the client already
// gave up, in which case the work was doomed.
func (s *sim) serviceDone(req *simReq) {
	req.done = true
	if t := s.gov.Release(); t != nil {
		g := <-t.C // buffered; Release already sent the grant
		next := s.tickets[t]
		delete(s.tickets, t)
		if next != nil {
			next.ticket = nil
			s.startService(next, g.Demote)
		}
	}
	if req.abandoned {
		s.doomed++
		return
	}
	s.served++
	s.finishFetch(req.player, req, nil)
}

// timeoutFired abandons an attempt whose deadline passed. Protected
// servers cancel queued waiters; the unprotected baseline leaves them
// to be served to nobody.
func (s *sim) timeoutFired(req *simReq) {
	if req.done || req.abandoned {
		return
	}
	req.abandoned = true
	if req.ticket != nil && s.cfg.Protect != nil && s.cfg.Protect.CancelOnTimeout {
		if s.gov.Cancel(req.ticket) {
			delete(s.tickets, req.ticket)
			req.done = true
		}
	}
	// context.DeadlineExceeded is a net.Error that times out, so
	// dash.Classify files it like a real http.Client deadline.
	s.attemptFailed(req.player, context.DeadlineExceeded)
}

// attemptFailed hands one failed attempt to the player's Retrier and
// schedules the retry it decides on, or ends the fetch.
func (s *sim) attemptFailed(player int, err error) {
	p := &s.players[player]
	ok, hint := dash.RetrySignal(err)
	step := p.retry.OnFailure(s.vtime(), ok, hint)
	switch step.Verdict {
	case resilience.Stop:
		s.finishFetch(player, nil, err)
	case resilience.Exhausted:
		s.finishFetch(player, nil, fmt.Errorf("%w after %w", dash.ErrBudgetExhausted, err))
	default:
		if step.Hinted {
			p.waited++
		}
		s.clk.Schedule(step.Delay, p.retryFn)
	}
}

// finishFetch records a finished fetch — failed with err, or delivered
// as req — and schedules the next one: after the jittered error pause
// on failure, on the segment cadence on success (immediately when the
// fetch overran it — the player is rebuffering). Players retire once
// the next fetch would start after the run.
func (s *sim) finishFetch(player int, req *simReq, err error) {
	p := &s.players[player]
	rec := &s.recorders[player]
	now, tail := s.clk.Now(), s.inTail()
	rec.requests++
	rec.latency.Add(float64((now - p.opStart).Microseconds()))
	if tail {
		s.tailReqs++
	}
	if err != nil {
		rec.errors++
		rec.errClasses[classIndex[dash.Classify(err)]]++
		if tail {
			s.tailErrs++
		}
		pause := resilience.Jitter(p.retry.Jitter, s.cfg.ErrorPause)
		if pause <= 0 {
			pause = s.cfg.RTT // virtual time must advance
		}
		p.dueAt = now + pause
	} else {
		p.retry.OnSuccess(s.vtime())
		rec.bytes += req.bytes
		rec.perRung[s.cfg.Ladder[req.servedRung].ID]++
		if tail {
			s.tailBytes += req.bytes
		}
		if p.dueAt += s.cfg.SegDur; p.dueAt < now {
			p.dueAt = now
		}
	}
	if p.dueAt < s.cfg.Duration {
		s.clk.At(p.dueAt, p.startFn)
	}
}

// run dispatches the clock until every player has retired and the
// server has drained, then folds the per-player recorders and the
// server's ledger into the SimResult.
func (s *sim) run() *SimResult {
	s.clk.Run()
	cfg := &s.cfg
	rungs := make([]string, len(cfg.Ladder))
	for i, rung := range cfg.Ladder {
		rungs[i] = rung.ID
	}
	res := foldRecorders(s.recorders, rungs, cfg.Tenants, cfg.Workers, func(i int) dash.ClientStats {
		p := &s.players[i]
		return dash.ClientStats{Budget: p.retry.Budget.Stats(), Breaker: p.retry.Breaker.Stats(), Waited: p.waited}
	})
	res.Elapsed = cfg.Duration

	gs := s.gov.Stats()
	reg := telemetry.NewRegistry()
	gs.Record(reg)
	s.chaos.Stats().Record(reg)
	reg.Counter("sim.attempts").Add(s.attempts)
	reg.Counter("sim.server.served").Add(s.served)
	reg.Counter("sim.server.doomed").Add(s.doomed)
	reg.Counter("sim.tail.requests").Add(s.tailReqs)
	reg.Counter("sim.tail.errors").Add(s.tailErrs)
	reg.Counter("sim.tail.bytes").Add(s.tailBytes)
	res.ServerMetrics = reg.ValueMap()

	return &SimResult{
		Result:       res,
		Attempts:     s.attempts,
		Doomed:       s.doomed,
		Served:       s.served,
		TailRequests: s.tailReqs,
		TailErrors:   s.tailErrs,
		TailBytes:    s.tailBytes,
		Governor:     gs,
	}
}
