package dash

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"coalqoe/internal/cdn"
	"coalqoe/internal/faults"
)

// The /metrics goldens.
//
// Each case drives a server in process through ServeHTTP on a fake
// clock with a fixed serial request sequence (valid fetches mixed with
// bad paths and out-of-range segments), then compares the /metrics
// body byte for byte with testdata/metrics_<case>.golden. They pin the
// series names, the explicit zeros and the JSON shape, so a change to
// how the snapshot is assembled must reproduce the same body.
//
// Refresh (only for an intentional change to the /metrics contract):
//
//	go test ./internal/dash -run TestMetricsGolden -update-metrics-goldens

var updateMetricsGoldens = flag.Bool("update-metrics-goldens", false, "rewrite testdata/metrics_*.golden from the current server")

// goldenPaths is the serial request sequence: manifest fetches,
// segments across the ladder, and every rejection class the handler
// has before admission.
func goldenPaths(m *Manifest) []string {
	paths := []string{"/manifest.json"}
	ids := []string{"480p30", "720p60", "240p24", "1080p48", "480p30", "360p30"}
	for i := 0; i < 60; i++ {
		paths = append(paths, "/video/"+ids[i%len(ids)]+"/"+strconv.Itoa(i%7))
		switch i % 10 {
		case 3:
			paths = append(paths, "/video/480p30/"+strconv.Itoa(m.Video.Segments())) // past end
		case 5:
			paths = append(paths, "/video/999p30/0") // unknown resolution
		case 7:
			paths = append(paths, "/video/480p30") // missing segment
		case 9:
			paths = append(paths, "/video/480p31/0", "/manifest.json") // unknown rung
		}
	}
	return paths
}

// goldenTenants cycles a quota-listed tenant, a throttled tenant, an
// unlisted tenant and the anonymous default (no header).
var goldenTenants = []string{"gold", "flood", "guest", ""}

// serveGolden replays goldenPaths against h and returns the /metrics
// body.
func serveGolden(t *testing.T, h http.Handler, m *Manifest, clk *govTestClock) []byte {
	t.Helper()
	for i, p := range goldenPaths(m) {
		req := httptest.NewRequest(http.MethodGet, p, nil)
		if tenant := goldenTenants[i%len(goldenTenants)]; tenant != "" {
			req.Header.Set(TenantHeader, tenant)
		}
		h.ServeHTTP(httptest.NewRecorder(), req)
		clk.t = clk.t.Add(100 * time.Millisecond)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	return rec.Body.Bytes()
}

func TestMetricsGolden(t *testing.T) {
	cases := []struct {
		name  string
		build func(m *Manifest, clk *govTestClock) http.Handler
	}{
		{"bare", func(m *Manifest, _ *govTestClock) http.Handler {
			// goldenPaths skips some rungs; they read explicit zeros.
			return NewServer(m)
		}},
		{"full", func(m *Manifest, clk *govTestClock) http.Handler {
			const horizon = 10 * time.Second
			chaos := cdn.NewChaosFromWindows([]faults.Window{
				{Kind: faults.NetLoss, Start: 0, Duration: 2 * time.Second, Severity: 0.3},
				{Kind: faults.IOStall, Start: 2 * time.Second, Duration: 2 * time.Second, Severity: 3},
				{Kind: faults.MemSpike, Start: 4 * time.Second, Duration: time.Second, Severity: 64 << 20},
				{Kind: faults.NetOutage, Start: 5 * time.Second, Duration: 500 * time.Millisecond},
			}, 7, horizon, clk.now, func(time.Duration) {})
			gov := cdn.NewGovernor(cdn.GovernorConfig{
				MaxInflight: 2,
				Quotas: []cdn.TenantQuota{
					{Name: "gold", Rate: 10, Burst: 10},
					{Name: "flood", Rate: 0.5, Burst: 1},
				},
				BrownoutEnter:  0.1,
				BrownoutDemote: 1,
			}, clk.now)
			cache := cdn.New(cdn.Config{Capacity: 8 << 20, AdmitAfter: 2, Coalesce: true})
			return NewServerOpts(m, ServerOptions{Cache: cache, Chaos: chaos, Governor: gov})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := &govTestClock{t: time.Unix(1700000000, 0)}
			m := NewManifest(TestVideos[0], StandardFPS...)
			got := serveGolden(t, tc.build(m, clk), m, clk)
			path := filepath.Join("testdata", "metrics_"+tc.name+".golden")
			if *updateMetricsGoldens {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update-metrics-goldens to create)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("/metrics body differs from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}

// TestMetricsScrapeUnderLoad scrapes /metrics from 2 goroutines while
// 8 goroutines fetch segments through a cache and a Governor. Run
// under -race it checks that the snapshot is safe against the request
// path; once the traffic stops, the per-rung request counters must sum
// to exactly the 200 segment responses.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	m := NewManifest(TestVideos[0], 30)
	gov := cdn.NewGovernor(cdn.GovernorConfig{MaxInflight: 4}, time.Now)
	cache := cdn.New(cdn.Config{Capacity: 16 << 20, AdmitAfter: 1, Coalesce: true})
	srv := NewServerOpts(m, ServerOptions{Cache: cache, Governor: gov})
	scrape := func() map[string]float64 {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		var out map[string]float64
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Errorf("decode /metrics: %v", err)
		}
		return out
	}

	const fetchers, perFetcher = 8, 30
	ids := []string{"240p30", "360p30", "480p30", "720p30"}
	var (
		done    = make(chan struct{})
		wg      sync.WaitGroup
		scrapes sync.WaitGroup
		mu      sync.Mutex
		ok200   int
	)
	for s := 0; s < 2; s++ {
		scrapes.Add(1)
		go func() {
			defer scrapes.Done()
			for {
				select {
				case <-done:
					return
				default:
					scrape()
				}
			}
		}()
	}
	for f := 0; f < fetchers; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			n := 0
			for i := 0; i < perFetcher; i++ {
				p := "/video/" + ids[(f+i)%len(ids)] + "/" + strconv.Itoa(i%5)
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
				if rec.Code == http.StatusOK {
					n++
				}
			}
			mu.Lock()
			ok200 += n
			mu.Unlock()
		}(f)
	}
	wg.Wait()
	close(done)
	scrapes.Wait()

	got := scrape()
	sum := 0.0
	for _, id := range ids {
		sum += got["dash.segment_requests."+id]
	}
	if ok200 == 0 {
		t.Fatal("no segment request succeeded")
	}
	if sum != float64(ok200) {
		t.Errorf("per-rung segment requests sum to %v, want %d (the 200 responses)", sum, ok200)
	}
}
