package exp

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"coalqoe/internal/dash"
	"coalqoe/internal/device"
	"coalqoe/internal/faults"
	"coalqoe/internal/proc"
)

// The event-order digest oracle.
//
// Every kernel optimisation must leave the dispatch sequence of the
// simulation byte-identical: same events, same virtual times, same
// order. The digest (an FNV-1a hash over every dispatched event's
// time/seq/kind, see simclock.EnableDigest) compresses a whole run's
// dispatch sequence into one uint64. The golden file below pins the
// digests of a representative set of experiment cells; it was recorded
// BEFORE the kernel hot paths were optimised, so a passing run proves
// the optimised kernel replays exactly the pre-optimisation event
// sequence.
//
// Refresh (only for intentional simulation-behavior changes — never to
// paper over an optimisation regression):
//
//	go test ./internal/exp -run TestEventDigestGolden -update-digests
//
// A second golden pins the tick-free digest (simclock.TickFreeDigest):
// the same hash over every event except the scheduler's ticks, with
// each event keyed by its ordinal among non-tick schedulings instead of
// its sequence number. It was recorded before the scheduler learned to
// skip ticks, so it proves that skipping ticks leaves every other event
// where it was. Its own flag keeps a routine full-digest refresh from
// rewriting it:
//
//	go test ./internal/exp -run TestEventDigestGolden -update-notick-digests

var (
	updateDigests       = flag.Bool("update-digests", false, "rewrite testdata/event_digests.golden from the current kernel")
	updateNoTickDigests = flag.Bool("update-notick-digests", false, "rewrite testdata/event_digests_notick.golden from the current kernel")
)

const (
	digestGoldenPath       = "testdata/event_digests.golden"
	noTickDigestGoldenPath = "testdata/event_digests_notick.golden"
)

// digestCells is the oracle's cell set: every device profile, every
// pressure regime, organic pressure, telemetry sampling, and a fault
// plan — the configurations that exercise all kernel subsystems
// (simclock, sched, mem, kswapd, lmkd, blockio, player, faults).
func digestCells() map[string]VideoRun {
	quickVideo := dash.TestVideos[0]
	quickVideo.Duration = 60 * time.Second

	memstorm, err := faults.Lookup("memstorm")
	if err != nil {
		panic(err)
	}

	cells := map[string]VideoRun{
		"nokia1-720p30-normal": {
			Profile: device.Nokia1, Video: quickVideo,
			Resolution: dash.R720p, FPS: 30, Pressure: proc.Normal,
		},
		"nokia1-720p30-moderate": {
			Profile: device.Nokia1, Video: quickVideo,
			Resolution: dash.R720p, FPS: 30, Pressure: proc.Moderate,
		},
		"nokia1-720p30-critical": {
			Profile: device.Nokia1, Video: quickVideo,
			Resolution: dash.R720p, FPS: 30, Pressure: proc.Critical,
		},
		"nexus5-1080p30-low": {
			Profile: device.Nexus5, Video: quickVideo,
			Resolution: dash.R1080p, FPS: 30, Pressure: proc.Low,
		},
		"nexus6p-1080p60-moderate": {
			Profile: device.Nexus6P, Video: quickVideo,
			Resolution: dash.R1080p, FPS: 60, Pressure: proc.Moderate,
		},
		"nokia1-480p30-organic6": {
			Profile: device.Nokia1, Video: quickVideo,
			Resolution: dash.R480p, FPS: 30, OrganicApps: 6,
		},
		"nokia1-720p30-moderate-telemetry": {
			Profile: device.Nokia1, Video: quickVideo,
			Resolution: dash.R720p, FPS: 30, Pressure: proc.Moderate,
			DeviceOpts: device.Options{Telemetry: true},
		},
		"nokia1-720p30-moderate-memstorm": {
			Profile: device.Nokia1, Video: quickVideo,
			Resolution: dash.R720p, FPS: 30, Pressure: proc.Moderate,
			Faults: &memstorm,
		},
	}
	for name, c := range cells {
		c.Digest = true
		c.Seed = CellSeed(12345, c) + 1
		cells[name] = c
	}
	return cells
}

// runDigests runs every oracle cell and returns its full and tick-free
// digests by cell name.
func runDigests(t *testing.T) (full, tickFree map[string]uint64) {
	t.Helper()
	cells := digestCells()
	names := make([]string, 0, len(cells))
	for name := range cells {
		names = append(names, name)
	}
	sort.Strings(names)

	full = make(map[string]uint64, len(cells))
	tickFree = make(map[string]uint64, len(cells))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, name := range names {
		name, cfg := name, cells[name]
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := Run(cfg)
			mu.Lock()
			full[name] = res.EventDigest
			tickFree[name] = res.TickFreeDigest
			mu.Unlock()
		}()
	}
	wg.Wait()
	return full, tickFree
}

func readDigestGolden(t *testing.T, path string) map[string]uint64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open golden (run with -update-digests to create): %v", err)
	}
	defer f.Close()
	out := make(map[string]uint64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var name string
		var d uint64
		if _, err := fmt.Sscanf(line, "%s %x", &name, &d); err != nil {
			t.Fatalf("bad golden line %q: %v", line, err)
		}
		out[name] = d
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// Golden file headers, one per digest.
const (
	digestGoldenHeader = `# Event-order digests per experiment cell (FNV-1a over dispatched
# (time, seq, kind) — see simclock.EnableDigest and digest_test.go).
# Recorded against the pre-optimisation kernel; any optimisation
# must reproduce these bytes exactly.
`
	noTickDigestGoldenHeader = `# Tick-free event-order digests per experiment cell (FNV-1a over
# dispatched non-tick events' (time, ordinal among non-tick
# schedulings, kind) — see simclock.TickFreeDigest and digest_test.go).
# Recorded before the scheduler skipped ticks; skipping ticks must
# reproduce these bytes exactly.
`
)

func writeDigestGolden(t *testing.T, path, header string, digests map[string]uint64) {
	t.Helper()
	names := make([]string, 0, len(digests))
	for name := range digests {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(header)
	for _, name := range names {
		fmt.Fprintf(&b, "%s %016x\n", name, digests[name])
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkDigestGolden holds got to the golden at path, or rewrites the
// golden when update is set.
func checkDigestGolden(t *testing.T, path, header string, update bool, got map[string]uint64) {
	t.Helper()
	for name, d := range got {
		if d == 0 {
			t.Errorf("%s: %s digest is zero — digest plumbing broken", path, name)
		}
	}
	if update {
		writeDigestGolden(t, path, header, got)
		t.Logf("rewrote %s with %d digests", path, len(got))
		return
	}
	want := readDigestGolden(t, path)
	if len(want) != len(got) {
		t.Errorf("%s has %d cells, battery ran %d (refresh it after adding cells)", path, len(want), len(got))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: in %s but not run", name, path)
		} else if g != w {
			t.Errorf("%s: digest %016x, %s has %016x — the kernel's dispatch sequence changed", name, g, path, w)
		}
	}
}

// TestEventDigestGolden replays every oracle cell and holds its full
// and tick-free digests to the committed golden values.
func TestEventDigestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full digest battery skipped in -short mode")
	}
	full, tickFree := runDigests(t)
	checkDigestGolden(t, digestGoldenPath, digestGoldenHeader, *updateDigests, full)
	checkDigestGolden(t, noTickDigestGoldenPath, noTickDigestGoldenHeader, *updateNoTickDigests, tickFree)
}

// TestEventDigestSerialVsParallel runs one digest-enabled grid serially
// and at 8 workers and requires identical digests run-for-run: the
// executor's byte-identical-at-any-parallelism contract, asserted at
// the kernel-event level rather than the report level.
func TestEventDigestSerialVsParallel(t *testing.T) {
	cell := VideoRun{
		Profile: device.Nokia1, Resolution: dash.R720p, FPS: 30,
		Pressure: proc.Moderate,
	}
	cell.Video = dash.TestVideos[0]
	cell.Video.Duration = 45 * time.Second

	digestsOf := func(workers int) []uint64 {
		res := RunGrid(Options{Quick: true, Seed: 7, Runs: 3, Parallel: workers, Digest: true}, []VideoRun{cell})
		var out []uint64
		for _, rr := range res {
			for _, r := range rr {
				out = append(out, r.EventDigest)
			}
		}
		return out
	}
	serial := digestsOf(1)
	parallel := digestsOf(8)
	if len(serial) != len(parallel) {
		t.Fatalf("run counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] == 0 {
			t.Fatalf("run %d: zero digest", i)
		}
		if serial[i] != parallel[i] {
			t.Errorf("run %d: serial digest %016x != parallel digest %016x", i, serial[i], parallel[i])
		}
	}
}
