package cdn

import (
	"reflect"
	"testing"
	"time"

	"coalqoe/internal/telemetry"
)

// govClock is a hand-advanced clock for governor tests.
type govClock struct{ t time.Time }

func newGovClock() *govClock                { return &govClock{t: time.Unix(1700000000, 0)} }
func (c *govClock) now() time.Time          { return c.t }
func (c *govClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestGovernorAdmitQueueShed(t *testing.T) {
	clk := newGovClock()
	g := NewGovernor(GovernorConfig{MaxInflight: 2, MaxQueue: 2, RetryAfter: 5 * time.Second}, clk.now)

	for i := 0; i < 2; i++ {
		if d := g.Admit("a"); d.Kind != Admitted {
			t.Fatalf("admit %d: kind = %v, want Admitted", i, d.Kind)
		}
	}
	var tickets []*Ticket
	for i := 0; i < 2; i++ {
		d := g.Admit("a")
		if d.Kind != Queued || d.Ticket == nil {
			t.Fatalf("overflow %d: kind = %v, want Queued with ticket", i, d.Kind)
		}
		tickets = append(tickets, d.Ticket)
	}
	d := g.Admit("a")
	if d.Kind != Shed || d.Status != 503 || d.RetryAfter != 5*time.Second {
		t.Fatalf("full queue: decision = %+v, want Shed 503 Retry-After 5s", d)
	}

	// Release hands the freed slot to the oldest queued ticket, both by
	// return value and on the ticket's channel.
	got := g.Release()
	if got != tickets[0] {
		t.Fatal("release granted out of FIFO order within a tenant")
	}
	select {
	case <-got.C:
	default:
		t.Fatal("grant not delivered on the ticket channel")
	}

	s := g.Stats()
	if s.Admitted != 2 || s.Queued != 2 || s.Shed != 1 || s.Granted != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.Inflight != 2 || s.QueueDepth != 1 {
		t.Errorf("inflight=%d queue=%d, want 2/1", s.Inflight, s.QueueDepth)
	}
}

func TestGovernorUnlimitedWhenUnconfigured(t *testing.T) {
	g := NewGovernor(GovernorConfig{}, newGovClock().now)
	for i := 0; i < 100; i++ {
		if d := g.Admit("x"); d.Kind != Admitted {
			t.Fatalf("unconfigured governor must admit everything, got %v", d.Kind)
		}
	}
	if g.Release() != nil {
		t.Error("release with empty queue must return nil")
	}
}

func TestGovernorDRRFairness(t *testing.T) {
	clk := newGovClock()
	g := NewGovernor(GovernorConfig{MaxInflight: 1, MaxQueue: 8}, clk.now)
	if d := g.Admit("hot"); d.Kind != Admitted {
		t.Fatal("first request should be admitted")
	}
	// Hot tenant floods the queue first; cold tenant arrives later with
	// fewer requests. DRR must interleave grants, not drain hot first.
	for i := 0; i < 4; i++ {
		if d := g.Admit("hot"); d.Kind != Queued {
			t.Fatalf("hot %d not queued: %v", i, d.Kind)
		}
	}
	for i := 0; i < 2; i++ {
		if d := g.Admit("cold"); d.Kind != Queued {
			t.Fatalf("cold %d not queued: %v", i, d.Kind)
		}
	}
	var order []string
	for i := 0; i < 6; i++ {
		tk := g.Release()
		if tk == nil {
			t.Fatalf("release %d returned nil with %d queued", i, 6-i)
		}
		<-tk.C
		order = append(order, tk.tenant)
	}
	want := []string{"hot", "cold", "hot", "cold", "hot", "hot"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order = %v, want %v", order, want)
		}
	}
}

func TestGovernorQuotaThrottle(t *testing.T) {
	clk := newGovClock()
	g := NewGovernor(GovernorConfig{
		Quotas: []TenantQuota{{Name: "metered", Rate: 1, Burst: 2}},
	}, clk.now)

	// Full burst is available up front.
	for i := 0; i < 2; i++ {
		if d := g.Admit("metered"); d.Kind != Admitted {
			t.Fatalf("burst admit %d: %v", i, d.Kind)
		}
	}
	d := g.Admit("metered")
	if d.Kind != Shed || d.Status != 429 {
		t.Fatalf("over-quota: decision = %+v, want Shed 429", d)
	}
	if d.RetryAfter < time.Second {
		t.Errorf("Retry-After hint = %v, want >= 1s (bucket refill time)", d.RetryAfter)
	}
	// The bucket refills on the injected clock.
	clk.advance(1500 * time.Millisecond)
	if d := g.Admit("metered"); d.Kind != Admitted {
		t.Fatalf("post-refill: %v, want Admitted", d.Kind)
	}
	// Unlisted tenants are never throttled.
	for i := 0; i < 50; i++ {
		if d := g.Admit("unmetered"); d.Kind != Admitted {
			t.Fatal("unlisted tenant throttled")
		}
	}
	s := g.Stats()
	if tc := s.PerTenant["metered"]; tc.Granted != 3 || tc.Throttled != 1 {
		t.Errorf("metered counters = %+v, want granted=3 throttled=1", tc)
	}
	if tc := s.PerTenant["unmetered"]; tc.Granted != 50 || tc.Throttled != 0 {
		t.Errorf("unmetered counters = %+v, want granted=50 throttled=0", tc)
	}
}

func TestGovernorBrownoutHysteresis(t *testing.T) {
	clk := newGovClock()
	g := NewGovernor(GovernorConfig{
		MaxInflight: 1, MaxQueue: 4,
		BrownoutEnter: 0.2, // exit defaults to 0.05, demote to 2
	}, clk.now)

	if d := g.Admit("a"); d.Kind != Admitted || d.Demote != 0 {
		t.Fatalf("healthy admit: %+v, want Admitted undemoted", d)
	}
	// Saturate: fill the queue, then shed until the pressure signal
	// trips (queue congestion or shed EWMA, whichever first).
	for i := 0; i < 4; i++ {
		g.Admit("a")
	}
	for i := 0; i < 20; i++ {
		if d := g.Admit("a"); d.Kind != Shed {
			t.Fatalf("shed %d: %v", i, d.Kind)
		}
	}
	if s := g.Stats(); !s.BrownoutActive || s.BrownoutEntered != 1 {
		t.Fatalf("brownout not engaged after sustained shedding: %+v", s)
	}
	// Queued requests granted during brownout carry the demotion hint.
	tk := g.Release()
	if grant := <-tk.C; grant.Demote != 2 {
		t.Fatalf("brownout grant demote = %d, want 2", grant.Demote)
	}
	for g.Release() != nil {
	}

	// Recovery: a long run of clean admissions decays the EWMA below
	// the exit threshold — brownout disengages exactly once (hysteresis,
	// no oscillation) and demotion hints stop.
	for i := 0; i < 400; i++ {
		d := g.Admit("a")
		if d.Kind != Admitted {
			t.Fatalf("recovery admit %d: %v", i, d.Kind)
		}
		g.Release()
	}
	s := g.Stats()
	if s.BrownoutActive {
		t.Fatalf("brownout still active after recovery: ewma=%v", s.ShedEWMA)
	}
	if s.BrownoutEntered != 1 || s.BrownoutExited != 1 {
		t.Errorf("brownout oscillated: entered=%d exited=%d, want 1/1", s.BrownoutEntered, s.BrownoutExited)
	}
	if d := g.Admit("a"); d.Demote != 0 {
		t.Errorf("post-recovery admit still demoted: %d", d.Demote)
	}
}

func TestGovernorCancel(t *testing.T) {
	clk := newGovClock()
	g := NewGovernor(GovernorConfig{MaxInflight: 1, MaxQueue: 4}, clk.now)
	g.Admit("a")
	d1 := g.Admit("a")
	d2 := g.Admit("b")
	if d1.Kind != Queued || d2.Kind != Queued {
		t.Fatal("setup: both should queue")
	}
	if !g.Cancel(d1.Ticket) {
		t.Fatal("cancel of a queued ticket must succeed")
	}
	if g.Cancel(d1.Ticket) {
		t.Fatal("double cancel must report false")
	}
	// The canceled ticket is skipped: the next release grants b.
	tk := g.Release()
	if tk != d2.Ticket {
		t.Fatal("release granted a canceled ticket")
	}
	// Cancel racing a delivered grant reports false; the caller then
	// owns the slot and must consume + release.
	if g.Cancel(d2.Ticket) {
		t.Fatal("cancel after grant must report false")
	}
	<-tk.C
	if s := g.Stats(); s.Canceled != 1 || s.QueueDepth != 0 {
		t.Errorf("stats = %+v, want canceled=1 depth=0", s)
	}
}

func TestGovernorDeterministicReplay(t *testing.T) {
	// The same call sequence at the same injected instants produces
	// identical decisions and stats — the property the virtual-time
	// simulator and the A/B acceptance test stand on.
	run := func() ([]AdmitKind, GovernorStats) {
		clk := newGovClock()
		g := NewGovernor(GovernorConfig{
			MaxInflight: 2, MaxQueue: 3, BrownoutEnter: 0.3,
			Quotas: []TenantQuota{{Name: "t1", Rate: 5, Burst: 5}},
		}, clk.now)
		var kinds []AdmitKind
		tenants := []string{"t1", "t2", "t1", "t3", "t2", "t1"}
		for step := 0; step < 120; step++ {
			d := g.Admit(tenants[step%len(tenants)])
			kinds = append(kinds, d.Kind)
			if d.Kind == Queued && step%3 == 0 {
				g.Cancel(d.Ticket)
			}
			if step%2 == 1 {
				if tk := g.Release(); tk != nil {
					<-tk.C
				}
			}
			clk.advance(50 * time.Millisecond)
		}
		return kinds, g.Stats()
	}
	k1, s1 := run()
	k2, s2 := run()
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Fatalf("decision %d differs: %v vs %v", i, k1[i], k2[i])
		}
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("stats differ:\n%+v\n%+v", s1, s2)
	}
}

func TestGovernorStatsRecord(t *testing.T) {
	clk := newGovClock()
	g := NewGovernor(GovernorConfig{
		MaxInflight: 1, MaxQueue: 1,
		Quotas: []TenantQuota{{Name: "acme", Rate: 100}},
	}, clk.now)
	g.Admit("acme")
	g.Admit("acme") // queued
	g.Admit("acme") // shed
	reg := telemetry.NewRegistry()
	g.Stats().Record(reg)
	m := reg.ValueMap()
	for _, key := range []string{
		"dash.admit.admitted", "dash.admit.queued", "dash.admit.shed",
		"dash.admit.inflight", "dash.admit.queue_depth",
		"dash.brownout.active", "dash.brownout.demoted",
		"dash.quota.granted.acme", "dash.quota.throttled.acme",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("recorded series missing %q", key)
		}
	}
	if m["dash.admit.admitted"] != 1 || m["dash.admit.shed"] != 1 {
		t.Errorf("recorded = %v", m)
	}
}
