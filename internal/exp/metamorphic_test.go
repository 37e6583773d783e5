package exp

import (
	"testing"
	"time"

	"coalqoe/internal/dash"
	"coalqoe/internal/device"
	"coalqoe/internal/faults"
	"coalqoe/internal/proc"
)

// Metamorphic determinism battery.
//
// Three representative experiments (fig8: time-to-play under pressure,
// fig13: kswapd scheduler states, tab5: preemption triples — together
// they exercise player, mem/kswapd/lmkd, and sched/trace) are replayed
// under transformations that must not change the report:
//
//	(a) the same seed twice            → identical bytes
//	(b) serial vs 8 executor workers   → identical bytes
//	(c) telemetry off vs on            → identical bytes (sampling is
//	    read-only; it adds clock events but must not perturb playback)
//	(d) a fault plan attached, twice   → identical bytes
//
// The same transformations are applied at the kernel level through
// RunGrid digests, where (a), (b) and (d) must match event-for-event.
// Telemetry is excluded there by design: the sampler schedules its own
// periodic events, so its digest legitimately differs while its report
// must not.

var metamorphicExperiments = []string{"fig8", "fig13", "tab5"}

func reportBytes(t *testing.T, id string, o Options) string {
	t.Helper()
	e, err := Find(id)
	if err != nil {
		t.Fatal(err)
	}
	rep := e.Run(o)
	s := rep.String()
	if len(s) == 0 {
		t.Fatalf("%s: empty report", id)
	}
	return s
}

func assertSameReport(t *testing.T, id, cond string, a, b string) {
	t.Helper()
	if a != b {
		t.Errorf("%s: report bytes differ across %s:\n--- first ---\n%s\n--- second ---\n%s", id, cond, a, b)
	}
}

func TestMetamorphicSameSeedTwice(t *testing.T) {
	if testing.Short() {
		t.Skip("metamorphic battery skipped in -short mode")
	}
	for _, id := range metamorphicExperiments {
		o := Options{Quick: true, Seed: 21}
		assertSameReport(t, id, "two runs with the same seed",
			reportBytes(t, id, o), reportBytes(t, id, o))
	}
}

func TestMetamorphicSerialVsParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("metamorphic battery skipped in -short mode")
	}
	for _, id := range metamorphicExperiments {
		assertSameReport(t, id, "serial vs 8 workers",
			reportBytes(t, id, Options{Quick: true, Seed: 21, Parallel: 1}),
			reportBytes(t, id, Options{Quick: true, Seed: 21, Parallel: 8}))
	}
}

func TestMetamorphicTelemetryOnVsOff(t *testing.T) {
	if testing.Short() {
		t.Skip("metamorphic battery skipped in -short mode")
	}
	for _, id := range metamorphicExperiments {
		assertSameReport(t, id, "telemetry off vs on",
			reportBytes(t, id, Options{Quick: true, Seed: 21}),
			reportBytes(t, id, Options{Quick: true, Seed: 21, Telemetry: true}))
	}
}

func TestMetamorphicFaultsTwiceSameSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("metamorphic battery skipped in -short mode")
	}
	spec, err := faults.Lookup("memstorm")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range metamorphicExperiments {
		o := Options{Quick: true, Seed: 21, Faults: &spec}
		assertSameReport(t, id, "the same fault plan attached twice",
			reportBytes(t, id, o), reportBytes(t, id, o))
	}
}

// TestMetamorphicDigests applies the same transformations at the
// kernel-event level: per-run digests over a small grid must be
// identical for same-seed, serial-vs-parallel and faults-twice.
func TestMetamorphicDigests(t *testing.T) {
	cell := VideoRun{
		Profile: device.Nokia1, Resolution: dash.R720p, FPS: 30,
		Pressure: proc.Moderate,
	}
	cell.Video = dash.TestVideos[0]
	cell.Video.Duration = 45 * time.Second

	digests := func(o Options) []uint64 {
		o.Digest = true
		var out []uint64
		for _, rr := range RunGrid(o, []VideoRun{cell}) {
			for _, r := range rr {
				if r.EventDigest == 0 {
					t.Fatal("zero digest")
				}
				out = append(out, r.EventDigest)
			}
		}
		return out
	}
	assertDigestsEqual := func(cond string, a, b []uint64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: run counts differ: %d vs %d", cond, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: run %d digests differ: %016x vs %016x", cond, i, a[i], b[i])
			}
		}
	}

	base := Options{Quick: true, Seed: 33, Runs: 2}
	assertDigestsEqual("same seed twice", digests(base), digests(base))

	serial, parallel := base, base
	serial.Parallel, parallel.Parallel = 1, 8
	assertDigestsEqual("serial vs 8 workers", digests(serial), digests(parallel))

	spec, err := faults.Lookup("memstorm")
	if err != nil {
		t.Fatal(err)
	}
	withFaults := base
	withFaults.Faults = &spec
	assertDigestsEqual("fault plan attached twice", digests(withFaults), digests(withFaults))
}
