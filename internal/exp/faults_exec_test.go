package exp

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"coalqoe/internal/dash"
	"coalqoe/internal/device"
	"coalqoe/internal/faults"
	"coalqoe/internal/player"
	"coalqoe/internal/proc"
	"coalqoe/internal/telemetry"
)

// TestExecutorPanicIsolation holds the hardened executor to its
// contract: a panicking run yields one Result marked Failed with the
// panic value, and every other cell in the grid still completes — at
// serial and parallel widths (run with -race).
func TestExecutorPanicIsolation(t *testing.T) {
	for _, par := range []int{1, 8} {
		t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
			cells := []VideoRun{
				{Video: quickVideo(), Resolution: dash.R240p, FPS: 30},
				{Video: quickVideo(), Resolution: dash.R360p, FPS: 30,
					OnSession: func(*player.Session, *device.Device) { panic("injected test panic") }},
				{Video: quickVideo(), Resolution: dash.R480p, FPS: 30},
			}
			grid := RunGrid(Options{Runs: 2, Parallel: par}, cells)
			if len(grid) != 3 {
				t.Fatalf("got %d cells, want 3", len(grid))
			}
			for _, res := range grid[1] {
				if !res.Failed || !strings.Contains(res.FailReason, "injected test panic") {
					t.Errorf("panicking cell: Failed=%v reason=%q", res.Failed, res.FailReason)
				}
			}
			if got := Failures(grid[1]); got != 2 {
				t.Errorf("Failures = %d, want 2", got)
			}
			for _, i := range []int{0, 2} {
				for _, res := range grid[i] {
					if res.Failed || res.Metrics.FramesRendered == 0 {
						t.Errorf("cell %d did not survive a neighbor's panic: %+v", i, res)
					}
				}
			}
			if note := regimeNote(grid[1]); !strings.Contains(note, "2/2 runs failed") {
				t.Errorf("regimeNote = %q, want a failed-run annotation", note)
			}
		})
	}
}

// TestDeadlineMarksOverrun: a run still active at its sim-time deadline
// is marked Failed instead of wedging the grid, and the failure is
// excluded from the aggregates.
func TestDeadlineMarksOverrun(t *testing.T) {
	cfg := VideoRun{
		Video:      quickVideo(), // 20s clip
		Resolution: dash.R240p,
		FPS:        30,
		Deadline:   2 * time.Second,
	}
	res := Run(cfg)
	if !res.Failed || res.FailReason != "deadline exceeded" {
		t.Fatalf("Failed=%v reason=%q, want a deadline failure", res.Failed, res.FailReason)
	}
	if CrashRate([]Result{res}) != 0 {
		t.Error("failed runs must not count toward the crash rate")
	}
	// A generous deadline changes nothing.
	cfg.Deadline = 5 * time.Minute
	if res := Run(cfg); res.Failed {
		t.Errorf("run failed under a generous deadline: %q", res.FailReason)
	}
	// A cell's deadline holds for every run the executor launches.
	grid := RunGrid(Options{Runs: 2, Parallel: 2},
		[]VideoRun{{Video: quickVideo(), Resolution: dash.R240p, FPS: 30, Deadline: 2 * time.Second}})
	for i, r := range grid[0] {
		if !r.Failed {
			t.Errorf("grid run %d ignored its cell's deadline", i)
		}
	}
}

// TestFaultedGridByteIdentical replays the fault-injection experiment
// serially and across 8 workers: the rendered report AND every run's
// telemetry CSV must match byte for byte. This is the determinism
// contract under faults — schedules come from per-cell seed lanes, not
// from execution order (run with -race).
func TestFaultedGridByteIdentical(t *testing.T) {
	e, err := Find("faults_recovery")
	if err != nil {
		t.Fatal(err)
	}
	run := func(par int) (string, map[int]string) {
		var mu sync.Mutex
		csvs := make(map[int]string)
		opts := Options{
			Quick: true, Seed: 3, Parallel: par,
			Telemetry: true,
			OnTelemetry: func(run int, dump *telemetry.Dump) {
				var b strings.Builder
				if err := dump.WriteCSV(&b); err != nil {
					t.Error(err)
				}
				mu.Lock()
				csvs[run] = b.String()
				mu.Unlock()
			},
		}
		return e.Run(opts).String(), csvs
	}
	serialRep, serialCSV := run(1)
	parallelRep, parallelCSV := run(8)
	if serialRep != parallelRep {
		t.Errorf("faulted report differs across parallelism\n--- serial ---\n%s--- parallel ---\n%s",
			serialRep, parallelRep)
	}
	if len(serialCSV) == 0 {
		t.Fatal("no telemetry captured")
	}
	if !reflect.DeepEqual(serialCSV, parallelCSV) {
		t.Error("faulted telemetry CSVs differ across parallelism")
	}
}

// TestFaultsOptionInjectsPlan: Options.Faults flows into every launched
// run that doesn't carry its own plan, and the windows surface on the
// Result.
func TestFaultsOptionInjectsPlan(t *testing.T) {
	plan := faults.NetFlaky()
	grid := RunGrid(Options{Runs: 1, Faults: &plan},
		[]VideoRun{{Video: quickVideo(), Resolution: dash.R240p, FPS: 30, Pressure: proc.Normal}})
	res := grid[0][0]
	if len(res.FaultWindows) == 0 {
		t.Fatal("no fault windows recorded on the result")
	}
	for _, w := range res.FaultWindows {
		if w.Kind != faults.NetOutage && w.Kind != faults.NetLoss {
			t.Errorf("netflaky produced a %v window", w.Kind)
		}
	}
}
