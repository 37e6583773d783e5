// Overload governor: the server-side half of the resilience layer.
// The cache (cache.go) decides what the origin sees; the Governor
// decides what the *server* sees — an admission controller in front
// of the serving path with three defenses, applied in order:
//
//  1. Per-tenant token-bucket quotas: a hot tenant that exceeds its
//     contracted rate is throttled (429 + Retry-After) before it can
//     displace anyone else's traffic.
//  2. Concurrency admission: at most MaxInflight requests serve at
//     once; up to MaxQueue more wait in per-tenant FIFO queues drained
//     round-robin, so queued tenants share released slots
//     fairly instead of first-come-first-served (where a retry storm
//     from one tenant owns the whole queue). Beyond that, requests are
//     shed fast (503 + Retry-After) — an explicit "come back later" is
//     cheaper for everyone than a doomed slow failure.
//  3. Brownout: when the shed-rate EWMA (or queue occupancy) crosses
//     a threshold the governor stops degrading *availability* and
//     starts degrading *quality* — admitted requests carry a demotion
//     hint telling the server to serve a lower bitrate-ladder rung
//     than requested. Smaller bodies mean cheaper service, so
//     effective capacity rises and the shed rate falls; hysteresis
//     (enter high, exit low) keeps the mode from oscillating. This is
//     the Zoom/Webex/Meet adapt-don't-die philosophy applied server
//     side, and the server analogue of the paper's client-side lesson:
//     systems should falter gracefully under pressure, not collapse.
//
// Determinism: like the Cache, the Governor is a mutex-serialized
// state machine over its call sequence. It never consults a clock
// directly — `now` is injected at construction (time.Now in cmd/,
// a virtual clock in the loadgen simulator), so the same Admit/
// Release/Cancel sequence at the same injected instants produces the
// same decisions, byte for byte.
package cdn

import (
	"sort"
	"sync"
	"time"

	"coalqoe/internal/telemetry"
)

// TenantQuota is one tenant's contracted request rate.
type TenantQuota struct {
	Name string
	// Rate is the sustained request rate in requests/second.
	Rate float64
	// Burst is the bucket depth (default 2x Rate, minimum 1).
	Burst float64
}

// GovernorConfig shapes a Governor. The zero value of any field picks
// a sane default; a zero MaxInflight disables concurrency admission
// (quota and brownout still apply).
type GovernorConfig struct {
	// MaxInflight bounds concurrently admitted requests (0 = unlimited).
	MaxInflight int
	// MaxQueue bounds requests waiting for a slot across all tenants
	// (default 4x MaxInflight). Beyond it, requests are shed.
	MaxQueue int
	// RetryAfter is the backoff hint attached to shed responses
	// (default 1s). Quota throttles hint the tenant's actual refill
	// time instead when it is longer.
	RetryAfter time.Duration
	// Quotas lists per-tenant rate limits. Tenants not listed are
	// unlimited (admission and brownout still apply to them).
	Quotas []TenantQuota

	// BrownoutEnter is the shed-rate EWMA that activates brownout
	// (0 disables brownout); the EWMA falling to BrownoutEnter/4
	// deactivates it. BrownoutDemote is how many ladder rungs to step
	// down while active (default 2).
	BrownoutEnter  float64
	BrownoutDemote int
}

// brownoutAlpha is the EWMA weight of one decision: ~1/64 means the
// signal remembers roughly the last 64 admission decisions.
const brownoutAlpha = 1.0 / 64

// AdmitKind is the outcome class of an admission decision.
type AdmitKind int

const (
	// Admitted requests may serve immediately (Release when done).
	Admitted AdmitKind = iota
	// Queued requests hold a Ticket and wait for a Grant.
	Queued
	// Shed requests must be rejected with Decision.Status.
	Shed
)

// Decision is the governor's verdict for one arriving request.
type Decision struct {
	Kind AdmitKind
	// Status is the rejection code when Kind == Shed: 429 for a quota
	// throttle, 503 for a capacity shed.
	Status int
	// RetryAfter is the backoff hint to advertise on a shed.
	RetryAfter time.Duration
	// Demote is the brownout demotion (ladder rungs to step down)
	// when Kind == Admitted.
	Demote int
	// Ticket is the wait handle when Kind == Queued.
	Ticket *Ticket
}

// Grant releases a queued request into service.
type Grant struct {
	// Demote is the brownout demotion at grant time (brownout may
	// have engaged while the request queued).
	Demote int
}

// Ticket is one queued request. The HTTP layer waits on C (buffered:
// the grant is never lost if the waiter races a context cancel); the
// deterministic simulator uses the *Ticket returned by Release.
type Ticket struct {
	C      chan Grant
	tenant string
	seq    int64
}

// tenantState is the per-tenant bookkeeping.
type tenantState struct {
	name    string
	limited bool    // a quota applies
	rate    float64 // tokens/sec
	burst   float64
	tokens  float64
	lastAt  time.Duration // last refill instant

	queue []*Ticket

	granted   int64 // quota checks passed
	throttled int64 // quota sheds
}

// GovernorStats snapshots the governor counters.
type GovernorStats struct {
	Admitted  int64 // admitted straight into service
	Granted   int64 // queued, then granted a released slot
	Queued    int64 // sent to the wait queue
	Shed      int64 // capacity sheds (503)
	Throttled int64 // quota sheds (429), summed over tenants
	Canceled  int64 // queued requests withdrawn before grant

	BrownoutEntered int64
	BrownoutExited  int64
	Demoted         int64 // admissions carrying a demotion hint
	BrownoutActive  bool
	ShedEWMA        float64

	Inflight   int
	QueueDepth int

	// PerTenant maps tenant name to quota counters, for every tenant
	// the governor has seen (listed or not).
	PerTenant map[string]TenantCounters
}

// Record writes the stats into reg as the dash.admit.*,
// dash.brownout.* and per-tenant dash.quota.* series.
func (s GovernorStats) Record(reg *telemetry.Registry) {
	reg.Counter("dash.admit.admitted").Add(s.Admitted)
	reg.Counter("dash.admit.granted").Add(s.Granted)
	reg.Counter("dash.admit.queued").Add(s.Queued)
	reg.Counter("dash.admit.shed").Add(s.Shed)
	reg.Counter("dash.admit.canceled").Add(s.Canceled)
	reg.Gauge("dash.admit.inflight").Set(float64(s.Inflight))
	reg.Gauge("dash.admit.queue_depth").Set(float64(s.QueueDepth))
	reg.Counter("dash.brownout.entered").Add(s.BrownoutEntered)
	reg.Counter("dash.brownout.exited").Add(s.BrownoutExited)
	reg.Counter("dash.brownout.demoted").Add(s.Demoted)
	active := 0.0
	if s.BrownoutActive {
		active = 1
	}
	reg.Gauge("dash.brownout.active").Set(active)
	names := make([]string, 0, len(s.PerTenant))
	for name := range s.PerTenant {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tc := s.PerTenant[name]
		reg.Counter("dash.quota.granted." + name).Add(tc.Granted)
		reg.Counter("dash.quota.throttled." + name).Add(tc.Throttled)
	}
}

// TenantCounters is one tenant's quota ledger.
type TenantCounters struct {
	Granted   int64 // requests that passed the quota check
	Throttled int64 // requests shed by the quota
}

// Governor is the admission controller. Safe for concurrent use; all
// state transitions happen under one mutex (decisions are cheap — the
// serving work they gate happens outside).
type Governor struct {
	mu    sync.Mutex
	cfg   GovernorConfig
	now   func() time.Time
	epoch time.Time

	tenants map[string]*tenantState
	ring    []string // tenants with queued requests, round-robin visit order
	rr      int      // next ring index to visit

	inflight int
	queued   int
	seq      int64

	ewma     float64
	brownout bool

	stats GovernorStats
}

// NewGovernor builds a governor on the injected clock (time.Now from
// the binary's main package, or a virtual clock in the simulator).
func NewGovernor(cfg GovernorConfig, now func() time.Time) *Governor {
	if now == nil {
		panic("cdn: NewGovernor needs a clock; pass time.Now from the binary's main package")
	}
	if cfg.MaxInflight > 0 && cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.MaxInflight
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.BrownoutEnter > 0 && cfg.BrownoutDemote <= 0 {
		cfg.BrownoutDemote = 2
	}
	g := &Governor{cfg: cfg, now: now, epoch: now(), tenants: make(map[string]*tenantState)}
	for _, q := range cfg.Quotas {
		burst := q.Burst
		if burst <= 0 {
			burst = 2 * q.Rate
		}
		if burst < 1 {
			burst = 1
		}
		g.tenants[q.Name] = &tenantState{
			name: q.Name, limited: q.Rate > 0, rate: q.Rate, burst: burst, tokens: burst,
		}
	}
	return g
}

// elapsed returns the injected-clock time since construction.
func (g *Governor) elapsed() time.Duration { return g.now().Sub(g.epoch) }

// tenant returns (creating on first sight) the tenant's state.
// Caller holds mu.
func (g *Governor) tenant(name string) *tenantState {
	ts, ok := g.tenants[name]
	if !ok {
		ts = &tenantState{name: name}
		g.tenants[name] = ts
	}
	return ts
}

// Admit decides for one arriving request of the named tenant.
func (g *Governor) Admit(tenantName string) Decision {
	g.mu.Lock()
	defer g.mu.Unlock()
	now := g.elapsed()
	ts := g.tenant(tenantName)

	// 1. Quota: refill the tenant's bucket to now, then charge one
	// token. An empty bucket is a throttle, not a queue entry — over-
	// quota traffic must not consume shared queue slots.
	if ts.limited {
		dt := (now - ts.lastAt).Seconds()
		ts.lastAt = now
		if ts.tokens += dt * ts.rate; ts.tokens > ts.burst {
			ts.tokens = ts.burst
		}
		if ts.tokens < 1 {
			ts.throttled++
			g.stats.Throttled++
			g.noteShed(true)
			hint := g.cfg.RetryAfter
			if ts.rate > 0 {
				if wait := time.Duration((1 - ts.tokens) / ts.rate * float64(time.Second)); wait > hint {
					hint = wait
				}
			}
			return Decision{Kind: Shed, Status: 429, RetryAfter: hint}
		}
		ts.tokens--
	}
	ts.granted++

	// 2. Concurrency admission.
	if g.cfg.MaxInflight <= 0 || g.inflight < g.cfg.MaxInflight {
		g.inflight++
		g.stats.Admitted++
		g.noteShed(false)
		return Decision{Kind: Admitted, Demote: g.demote()}
	}
	if g.queued < g.cfg.MaxQueue {
		g.seq++
		t := &Ticket{C: make(chan Grant, 1), tenant: tenantName, seq: g.seq}
		if len(ts.queue) == 0 {
			g.ring = append(g.ring, tenantName)
		}
		ts.queue = append(ts.queue, t)
		g.queued++
		g.stats.Queued++
		g.noteShed(false)
		return Decision{Kind: Queued, Ticket: t}
	}
	g.stats.Shed++
	g.noteShed(true)
	return Decision{Kind: Shed, Status: 503, RetryAfter: g.cfg.RetryAfter}
}

// Release completes one admitted request. If requests are queued, the
// freed slot goes to the round-robin next tenant's oldest
// ticket: the grant is sent on the ticket's channel (for HTTP
// waiters) and the ticket returned (for the simulator). Returns nil
// when nothing was queued.
func (g *Governor) Release() *Ticket {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inflight > 0 {
		g.inflight--
	}
	t := g.dequeueDRR()
	if t == nil {
		return nil
	}
	g.inflight++
	g.stats.Granted++
	t.C <- Grant{Demote: g.demote()}
	return t
}

// dequeueDRR pops the next queued ticket round-robin: visit tenants in
// ring order and serve the oldest request of the first one with a
// non-empty queue. This is deficit round-robin with a unit quantum and
// unit request cost, where every visit serves. Caller holds mu.
func (g *Governor) dequeueDRR() *Ticket {
	for g.queued > 0 && len(g.ring) > 0 {
		if g.rr >= len(g.ring) {
			g.rr = 0
		}
		ts := g.tenants[g.ring[g.rr]]
		if len(ts.queue) == 0 {
			// Drained tenant: drop from the ring without advancing rr
			// (the next tenant shifts into this slot).
			g.ring = append(g.ring[:g.rr], g.ring[g.rr+1:]...)
			continue
		}
		t := ts.queue[0]
		ts.queue = ts.queue[1:]
		g.queued--
		if len(ts.queue) == 0 {
			g.ring = append(g.ring[:g.rr], g.ring[g.rr+1:]...)
			if g.rr >= len(g.ring) {
				g.rr = 0
			}
		} else {
			// Advance past the served tenant so the next release
			// visits its ring successor: round-robin, not drain.
			g.rr++
		}
		return t
	}
	return nil
}

// Cancel withdraws a queued ticket (the waiter gave up: client
// disconnect, attempt timeout). Reports whether the ticket was still
// queued; false means it was already granted — the caller owns a slot
// and must consume the grant and Release.
func (g *Governor) Cancel(t *Ticket) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	ts, ok := g.tenants[t.tenant]
	if !ok {
		return false
	}
	for i, qt := range ts.queue {
		if qt == t {
			ts.queue = append(ts.queue[:i], ts.queue[i+1:]...)
			g.queued--
			g.stats.Canceled++
			if len(ts.queue) == 0 {
				for ri, name := range g.ring {
					if name == t.tenant {
						g.ring = append(g.ring[:ri], g.ring[ri+1:]...)
						if ri < g.rr {
							g.rr--
						} else if g.rr >= len(g.ring) {
							g.rr = 0
						}
						break
					}
				}
			}
			return true
		}
	}
	return false
}

// noteShed folds one decision into the brownout signal and applies
// the hysteresis. Caller holds mu.
func (g *Governor) noteShed(shed bool) {
	if g.cfg.BrownoutEnter <= 0 {
		return
	}
	// Queue congestion counts as pressure even before sheds start
	// (enter at 3/4 occupancy), and it feeds the EWMA at half a shed's
	// weight: a congested stretch holds the mode through its own decay
	// time instead of toggling per decision, and exit additionally
	// waits for the queue to drain to 1/4 occupancy — without both,
	// brownout's extra capacity drains the queue, the mode exits, the
	// queue refills, and the governor bang-bangs between ladders.
	congested := g.cfg.MaxQueue > 0 && 4*g.queued >= 3*g.cfg.MaxQueue
	drained := 4*g.queued <= g.cfg.MaxQueue
	x := 0.0
	switch {
	case shed:
		x = 1
	case congested:
		x = 0.5
	}
	g.ewma = brownoutAlpha*x + (1-brownoutAlpha)*g.ewma
	if !g.brownout && (g.ewma >= g.cfg.BrownoutEnter || congested) {
		g.brownout = true
		g.stats.BrownoutEntered++
	} else if g.brownout && g.ewma <= g.cfg.BrownoutEnter/4 && drained {
		g.brownout = false
		g.stats.BrownoutExited++
	}
}

// demote returns the active demotion hint. Caller holds mu.
func (g *Governor) demote() int {
	if !g.brownout {
		return 0
	}
	g.stats.Demoted++
	return g.cfg.BrownoutDemote
}

// Stats snapshots the counters.
func (g *Governor) Stats() GovernorStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := g.stats
	s.BrownoutActive = g.brownout
	s.ShedEWMA = g.ewma
	s.Inflight = g.inflight
	s.QueueDepth = g.queued
	s.PerTenant = make(map[string]TenantCounters, len(g.tenants))
	//coalvet:allow maporder copying map to map preserves no order; consumers sort keys before rendering
	for name, ts := range g.tenants {
		s.PerTenant[name] = TenantCounters{Granted: ts.granted, Throttled: ts.throttled}
	}
	return s
}
