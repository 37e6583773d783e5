package loadgen

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"coalqoe/internal/cdn"
	"coalqoe/internal/dash"
	"coalqoe/internal/faults"
)

// The overload sim's output goldens.
//
// Each case renders a run's full WriteReport plus every SimResult
// observable the report does not show (attempts, served, doomed, the
// tail window, the whole governor ledger) and compares the bytes with
// testdata/sim_<case>.golden. Refactors of the sim's event loop or of
// its retry decisions must reproduce these bytes exactly: they pin the
// simulated outcomes, not just the A/B assertions' thresholds.
//
// TestSimEventDigestGolden adds the event-order oracle the device
// kernel already has (see internal/exp/digest_test.go): the simclock
// dispatch digest of each case, pinned in
// testdata/sim_event_digests.golden. Any reordering of the sim's
// dispatch sequence fails it, even one the outcome goldens happen to
// survive.
//
// Refresh (only for intentional simulation-behavior changes):
//
//	go test ./internal/loadgen -run 'TestSimGolden|TestSimEventDigestGolden' -update-sim-goldens

var updateSimGoldens = flag.Bool("update-sim-goldens", false, "rewrite testdata/sim_*.golden from the current sim")

const simDigestGoldenPath = "testdata/sim_event_digests.golden"

// retryStormConfig is a governed fleet under faults.RetryStorm in the
// benchmark's shape: 300 players, capacity 4, 3 attempts per fetch.
func retryStormConfig() SimConfig {
	const seed, dur = 11, 40 * time.Second
	return SimConfig{
		Players:    300,
		Tenants:    []string{"gold", "bronze"},
		Seed:       seed,
		Duration:   dur,
		SegDur:     4 * time.Second,
		Timeout:    1500 * time.Millisecond,
		RTT:        time.Millisecond,
		ErrorPause: 250 * time.Millisecond,
		Retry:      dash.RetryPolicy{Attempts: 3, Backoff: 100 * time.Millisecond, BackoffCap: 800 * time.Millisecond},
		Ladder: []SimRung{
			{ID: "240p30", Bytes: 250_000},
			{ID: "480p30", Bytes: 500_000},
			{ID: "1080p60", Bytes: 1_000_000},
		},
		Capacity:           4,
		ServiceFloor:       25 * time.Millisecond,
		ServiceBytesPerSec: 40 << 20,
		Faults:             faults.RetryStorm().Windows(seed, dur),
		Protect: &SimProtections{
			MaxQueue:   16,
			RetryAfter: time.Second,
			Quotas: []cdn.TenantQuota{
				{Name: "gold", Rate: 40, Burst: 40},
				{Name: "bronze", Rate: 40, Burst: 40},
			},
			BrownoutEnter:    0.1,
			BrownoutDemote:   2,
			CancelOnTimeout:  true,
			RetryBudget:      5,
			BreakerThreshold: 5,
			BreakerCooldown:  2 * time.Second,
			Jitter:           true,
		},
		Workers: 1,
	}
}

// simGoldenCase is one pinned configuration.
type simGoldenCase struct {
	name string
	cfg  SimConfig
}

// simGoldenCases lists the pinned configurations.
func simGoldenCases() []simGoldenCase {
	return []simGoldenCase{
		{"collapse_unprotected", collapseConfig(nil)},
		{"collapse_protected", collapseConfig(fullProtections())},
		{"retrystorm", retryStormConfig()},
	}
}

// renderSim is the golden rendering of one run.
func renderSim(res *SimResult) []byte {
	var buf bytes.Buffer
	if err := WriteReport(&buf, res.Result); err != nil {
		panic(err)
	}
	g := res.Governor
	fmt.Fprintf(&buf, "\nsim observables\n")
	fmt.Fprintf(&buf, "  attempts %d served %d doomed %d\n", res.Attempts, res.Served, res.Doomed)
	fmt.Fprintf(&buf, "  tail requests %d errors %d bytes %d\n", res.TailRequests, res.TailErrors, res.TailBytes)
	fmt.Fprintf(&buf, "  governor admitted %d granted %d queued %d shed %d throttled %d canceled %d\n",
		g.Admitted, g.Granted, g.Queued, g.Shed, g.Throttled, g.Canceled)
	fmt.Fprintf(&buf, "  brownout entered %d exited %d demoted %d active %t shed_ewma %v\n",
		g.BrownoutEntered, g.BrownoutExited, g.Demoted, g.BrownoutActive, g.ShedEWMA)
	fmt.Fprintf(&buf, "  inflight %d queue_depth %d\n", g.Inflight, g.QueueDepth)
	tenants := make([]string, 0, len(g.PerTenant))
	for name := range g.PerTenant {
		tenants = append(tenants, name)
	}
	sort.Strings(tenants)
	for _, name := range tenants {
		tc := g.PerTenant[name]
		fmt.Fprintf(&buf, "  tenant %s %+v\n", name, tc)
	}
	return buf.Bytes()
}

// TestSimGolden pins each case's rendering byte for byte.
func TestSimGolden(t *testing.T) {
	for _, c := range simGoldenCases() {
		name := c.name
		t.Run(name, func(t *testing.T) {
			res, err := RunSim(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := renderSim(res)
			path := filepath.Join("testdata", "sim_"+name+".golden")
			if *updateSimGoldens {
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
				t.Fatalf("read golden (regenerate with -update-sim-goldens): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", name, path, got, want)
			}
		})
	}
}

// TestSimEventDigestGolden pins each case's dispatch digest, and checks
// that recording it leaves the outcome golden untouched.
func TestSimEventDigestGolden(t *testing.T) {
	var got bytes.Buffer
	got.WriteString("# simclock dispatch digests of the overload sim (see sim_golden_test.go).\n")
	for _, c := range simGoldenCases() {
		s, err := newSim(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.clk.EnableDigest()
		res := s.run()
		fmt.Fprintf(&got, "%s %016x\n", c.name, s.clk.Digest())
		want, err := os.ReadFile(filepath.Join("testdata", "sim_"+c.name+".golden"))
		if err == nil && !bytes.Equal(renderSim(res), want) {
			t.Errorf("%s: the digest-enabled run drifted from its outcome golden", c.name)
		}
	}
	if *updateSimGoldens {
		if err := os.WriteFile(simDigestGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(simDigestGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-sim-goldens): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("sim dispatch digests drifted from %s:\n--- got ---\n%s--- want ---\n%s", simDigestGoldenPath, got.Bytes(), want)
	}
}
