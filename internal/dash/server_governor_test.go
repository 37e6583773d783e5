package dash

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"time"

	"coalqoe/internal/cdn"
)

// governedServer builds a test server with an admission governor on a
// fake clock.
func governedServer(t *testing.T, cfg cdn.GovernorConfig) (*httptest.Server, *Manifest, *cdn.Governor, *govTestClock) {
	t.Helper()
	clk := &govTestClock{t: time.Unix(1700000000, 0)}
	g := cdn.NewGovernor(cfg, clk.now)
	m := NewManifest(TestVideos[0], 24, 30, 48, 60)
	ts := httptest.NewServer(NewServerOpts(m, ServerOptions{Governor: g}))
	t.Cleanup(ts.Close)
	return ts, m, g, clk
}

type govTestClock struct{ t time.Time }

func (c *govTestClock) now() time.Time { return c.t }

func TestGovernedServerShedsWithRetryAfter(t *testing.T) {
	ts, _, g, _ := governedServer(t, cdn.GovernorConfig{
		MaxInflight: 1, MaxQueue: 1, RetryAfter: 2 * time.Second,
	})
	// Occupy the slot and the queue directly — the governor doesn't
	// care whether admissions came over HTTP.
	if d := g.Admit("warm"); d.Kind != cdn.Admitted {
		t.Fatal("setup: slot")
	}
	if d := g.Admit("warm"); d.Kind != cdn.Queued {
		t.Fatal("setup: queue")
	}
	resp, err := http.Get(ts.URL + "/video/480p30/0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	// Manifest and metrics bypass admission even while saturated.
	for _, path := range []string{"/manifest.json", "/metrics"} {
		r2, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != http.StatusOK {
			t.Errorf("%s under saturation: %d, want 200 (must bypass admission)", path, r2.StatusCode)
		}
	}
}

func TestGovernedServerQueuesAndServes(t *testing.T) {
	ts, m, g, _ := governedServer(t, cdn.GovernorConfig{MaxInflight: 1, MaxQueue: 4})
	if d := g.Admit("warm"); d.Kind != cdn.Admitted {
		t.Fatal("setup: slot")
	}
	type result struct {
		status int
		n      int64
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/video/480p30/0")
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		n, _ := io.Copy(io.Discard, resp.Body)
		done <- result{status: resp.StatusCode, n: n}
	}()
	// The request parks in the queue until the warm slot releases.
	deadline := time.After(5 * time.Second)
	for g.Stats().QueueDepth != 1 {
		select {
		case r := <-done:
			t.Fatalf("request completed while slot was held: %+v", r)
		case <-deadline:
			t.Fatal("request never queued")
		default:
		}
	}
	g.Release()
	r := <-done
	if r.err != nil || r.status != http.StatusOK {
		t.Fatalf("queued request: %+v", r)
	}
	rung, _ := m.Rung(R480p, 30)
	if want := int64(m.Video.SegmentBytes(rung, 0)); r.n != want {
		t.Errorf("body = %d bytes, want %d", r.n, want)
	}
	if s := g.Stats(); s.Granted != 1 {
		t.Errorf("granted = %d, want 1", s.Granted)
	}
}

func TestGovernedServerQuota429(t *testing.T) {
	ts, _, _, _ := governedServer(t, cdn.GovernorConfig{
		Quotas: []cdn.TenantQuota{{Name: "metered", Rate: 0.001, Burst: 1}},
	})
	get := func(tenant string) *http.Response {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/video/480p30/0", nil)
		req.Header.Set(TenantHeader, tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	if resp := get("metered"); resp.StatusCode != http.StatusOK {
		t.Fatalf("burst request: %d", resp.StatusCode)
	}
	resp := get("metered")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 must carry a Retry-After hint")
	}
	// Other tenants are untouched by the hot tenant's throttle.
	if resp := get("other"); resp.StatusCode != http.StatusOK {
		t.Errorf("unmetered tenant throttled: %d", resp.StatusCode)
	}
}

func TestGovernedServerBrownoutDemotes(t *testing.T) {
	ts, m, g, _ := governedServer(t, cdn.GovernorConfig{
		BrownoutEnter: 0.2, BrownoutDemote: 2,
		Quotas: []cdn.TenantQuota{{Name: "flood", Rate: 0.0001, Burst: 1}},
	})
	// Drive the shed EWMA over the brownout threshold with a flood of
	// quota throttles (deterministic: no queue timing involved).
	g.Admit("flood")
	for i := 0; i < 40; i++ {
		if d := g.Admit("flood"); d.Kind != cdn.Shed {
			t.Fatalf("flood %d not shed", i)
		}
		g.Release()
	}
	if !g.Stats().BrownoutActive {
		t.Fatal("brownout should be active")
	}
	// A healthy tenant asks for the top rung; brownout serves two
	// rungs down and says so.
	resp, err := http.Get(ts.URL + "/video/1080p60/0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	n, _ := io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("brownout fetch: %d", resp.StatusCode)
	}
	servedID := resp.Header.Get(ServedRungHeader)
	if servedID == "" || servedID == "1080p60" {
		t.Fatalf("served rung header = %q, want a demoted rung", servedID)
	}
	res, fps, err := parseRepID(servedID)
	if err != nil {
		t.Fatal(err)
	}
	served, ok := m.Rung(res, fps)
	if !ok {
		t.Fatalf("served rung %q not in manifest", servedID)
	}
	requested, _ := m.Rung(R1080p, 60)
	if served.Bitrate >= requested.Bitrate {
		t.Errorf("demoted rung %v not below requested %v", served.Bitrate, requested.Bitrate)
	}
	if want := int64(m.Video.SegmentBytes(served, 0)); n != want {
		t.Errorf("body = %d, want %d (the demoted rung's bytes)", n, want)
	}
	if cl, _ := strconv.ParseInt(resp.Header.Get("Content-Length"), 10, 64); cl != n {
		t.Errorf("Content-Length %d != body %d", cl, n)
	}
	// The rung mix shifted: the served rung's counter moved, not the
	// requested one's.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var metrics map[string]float64
	if err := json.NewDecoder(mresp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if metrics["dash.segment_requests."+servedID] != 1 {
		t.Errorf("served rung counter = %v, want 1", metrics["dash.segment_requests."+servedID])
	}
	if metrics["dash.segment_requests.1080p60"] != 0 {
		t.Errorf("requested rung counter = %v, want 0 (counted under served rung)", metrics["dash.segment_requests.1080p60"])
	}
	if metrics["dash.brownout.active"] != 1 || metrics["dash.brownout.demoted"] == 0 {
		t.Errorf("brownout metrics: active=%v demoted=%v", metrics["dash.brownout.active"], metrics["dash.brownout.demoted"])
	}
	if metrics["dash.quota.throttled.flood"] != 40 {
		t.Errorf("per-tenant throttle counter = %v, want 40", metrics["dash.quota.throttled.flood"])
	}
}

func TestGovernedMetricsFamilies(t *testing.T) {
	ts, _, _, _ := governedServer(t, cdn.GovernorConfig{MaxInflight: 8})
	resp, err := http.Get(ts.URL + "/video/480p30/0")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var metrics map[string]float64
	if err := json.NewDecoder(mresp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"dash.admit.admitted", "dash.admit.shed", "dash.admit.queue_depth",
		"dash.brownout.active", "dash.quota.granted.anon",
	} {
		if _, ok := metrics[key]; !ok {
			t.Errorf("/metrics missing %q", key)
		}
	}
	if metrics["dash.admit.admitted"] != 1 {
		t.Errorf("admitted = %v, want 1", metrics["dash.admit.admitted"])
	}
}

// TestSegmentHeadersOverHTTP sends repeated requests for every rung,
// then repeated brownout-demoted ones, through a real HTTP server with
// a cache and a Governor. Every response must carry the served rung's
// Content-Length and body, Content-Type video/mp4, and X-Served-Rung
// exactly when it was demoted; afterwards the server's shared
// header-value slices must be as built.
func TestSegmentHeadersOverHTTP(t *testing.T) {
	clk := &govTestClock{t: time.Unix(1700000000, 0)}
	g := cdn.NewGovernor(cdn.GovernorConfig{
		BrownoutEnter: 0.2, BrownoutDemote: 2,
		Quotas: []cdn.TenantQuota{{Name: "flood", Rate: 0.0001, Burst: 1}},
	}, clk.now)
	m := NewManifest(TestVideos[0], 30, 60)
	srv := NewServerOpts(m, ServerOptions{
		Cache:    cdn.New(cdn.Config{Capacity: 1 << 30, AdmitAfter: 1, Coalesce: true}),
		Governor: g,
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	table := func() []string {
		var out []string
		for _, row := range srv.segs {
			for _, e := range row {
				out = append(out, fmt.Sprintf("%d %q len=%d cap=%d %s", e.size, e.length, len(e.length), cap(e.length), e.key))
			}
		}
		return append(out, fmt.Sprintf("%q cap=%d", contentType, cap(contentType)))
	}
	built := table()

	check := func(idx, seg, demote int) {
		t.Helper()
		id := srv.ids[idx]
		resp, err := http.Get(fmt.Sprintf("%s/video/%s/%d", ts.URL, id, seg))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s/%d: %d, %v", id, seg, resp.StatusCode, err)
		}
		served, wantRung := max(idx-demote, 0), ""
		if served != idx {
			wantRung = srv.ids[served]
		}
		size := m.Video.SegmentBytes(srv.ladder[served], seg)
		if got := resp.Header.Get(ServedRungHeader); got != wantRung {
			t.Errorf("GET %s/%d: %s %q, want %q", id, seg, ServedRungHeader, got, wantRung)
		}
		if got := resp.Header.Values("Content-Type"); len(got) != 1 || got[0] != "video/mp4" {
			t.Errorf("GET %s/%d: Content-Type %q", id, seg, got)
		}
		if got := resp.Header.Values("Content-Length"); len(got) != 1 || got[0] != strconv.FormatInt(int64(size), 10) {
			t.Errorf("GET %s/%d: Content-Length %q, want %d", id, seg, got, size)
		}
		if int64(len(body)) != int64(size) {
			t.Errorf("GET %s/%d: %d-byte body, want %d", id, seg, len(body), size)
		}
	}

	for rep := 0; rep < 2; rep++ {
		for idx := range srv.ladder {
			for seg := 0; seg < 2; seg++ {
				check(idx, seg, 0)
			}
		}
	}
	// Drive the shed EWMA over the brownout threshold, as in
	// TestGovernedServerBrownoutDemotes.
	g.Admit("flood")
	for i := 0; i < 40; i++ {
		if d := g.Admit("flood"); d.Kind != cdn.Shed {
			t.Fatalf("flood %d not shed", i)
		}
		g.Release()
	}
	for rep := 0; rep < 2; rep++ {
		for idx := range srv.ladder {
			check(idx, 3, 2)
		}
	}
	if s := g.Stats(); !s.BrownoutActive || s.BrownoutExited != 0 {
		t.Fatalf("brownout ended mid-test: %+v", s)
	}
	if got := table(); !reflect.DeepEqual(got, built) {
		t.Error("segment table changed while serving")
	}
}
