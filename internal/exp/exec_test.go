package exp

import (
	"sync"
	"testing"

	"coalqoe/internal/dash"
	"coalqoe/internal/device"
	"coalqoe/internal/proc"
	"coalqoe/internal/study"
)

// TestParallelExperimentByteIdentical replays a full registered grid
// experiment serially and across 8 workers and compares the rendered
// reports byte for byte.
func TestParallelExperimentByteIdentical(t *testing.T) {
	e, err := Find("tab2")
	if err != nil {
		t.Fatal(err)
	}
	serial := e.Run(Options{Quick: true, Seed: 7, Parallel: 1}).String()
	parallel := e.Run(Options{Quick: true, Seed: 7, Parallel: 8}).String()
	if serial != parallel {
		t.Errorf("parallel report differs from serial\n--- serial ---\n%s--- parallel ---\n%s", serial, parallel)
	}
}

// TestRunGridSeedLanes pins the per-cell seeding rule: distinct cells
// get independent seed lanes, identical conditions stay paired, and
// repeats within a cell follow the serial base+1..+n assignment.
func TestRunGridSeedLanes(t *testing.T) {
	a := VideoRun{Resolution: dash.R480p, FPS: 30, Pressure: proc.Moderate}
	b := VideoRun{Resolution: dash.R480p, FPS: 60, Pressure: proc.Moderate}
	c := VideoRun{Resolution: dash.R480p, FPS: 30, Pressure: proc.Critical}
	if CellSeed(0, a) == CellSeed(0, b) || CellSeed(0, a) == CellSeed(0, c) {
		t.Error("distinct cells share a seed lane")
	}
	if CellSeed(0, a) != CellSeed(0, a) {
		t.Error("CellSeed is not stable")
	}
	// Cells differing only in non-identifying knobs (device options,
	// session hooks, retention) stay paired for A/B comparison.
	paired := a
	paired.DeviceOpts = device.Options{DisableZRAM: true}
	paired.KeepDevice = true
	if CellSeed(0, a) != CellSeed(0, paired) {
		t.Error("ablation variants should share a seed lane")
	}
	if CellSeed(5, a) != CellSeed(0, a)+5 {
		t.Error("base seed must fold in additively")
	}
}

// TestRunGridShape checks grouping and the executor's progress events.
func TestRunGridShape(t *testing.T) {
	var mu sync.Mutex
	var last ProgressEvent
	events := 0
	o := Options{Runs: 2, Parallel: 3, Progress: func(ev ProgressEvent) {
		mu.Lock()
		last = ev
		events++
		mu.Unlock()
	}}
	cells := []VideoRun{
		{Video: quickVideo(), Resolution: dash.R240p, FPS: 30},
		{Video: quickVideo(), Resolution: dash.R360p, FPS: 30},
		{Video: quickVideo(), Resolution: dash.R480p, FPS: 30},
	}
	grid := RunGrid(o, cells)
	if len(grid) != 3 {
		t.Fatalf("got %d cells, want 3", len(grid))
	}
	for i, results := range grid {
		if len(results) != 2 {
			t.Fatalf("cell %d: got %d repeats, want 2", i, len(results))
		}
		for _, res := range results {
			if res.Metrics.FramesRendered == 0 {
				t.Errorf("cell %d produced an empty run", i)
			}
			if res.Device != nil {
				t.Errorf("cell %d retained a device without KeepDevice", i)
			}
		}
	}
	if events != 12 {
		t.Errorf("got %d progress events, want 12 (6 starts + 6 completions)", events)
	}
	if last.Done != 6 || last.Total != 6 {
		t.Errorf("final progress event = %+v, want Done=6 Total=6", last)
	}
}

// TestUnreached covers the regime-accounting bugfix: runs that never
// reach the target pressure regime are counted and annotated instead of
// silently averaged in.
func TestUnreached(t *testing.T) {
	results := []Result{
		{PressureReached: true},
		{PressureReached: false},
		{PressureReached: false},
	}
	if got := Unreached(results); got != 2 {
		t.Errorf("Unreached = %d, want 2", got)
	}
	if note := regimeNote(results); note != "  [2/3 runs never reached target regime]" {
		t.Errorf("regimeNote = %q", note)
	}
	if note := regimeNote(results[:1]); note != "" {
		t.Errorf("regimeNote on clean results = %q, want empty", note)
	}
}

// TestConcurrentRunAndFleet races a controlled video run against the §3
// fleet engine, which fans its shards out over its own workers. Run
// with -race this verifies the two share no hidden state.
func TestConcurrentRunAndFleet(t *testing.T) {
	var wg sync.WaitGroup
	var fleetErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _, fleetErr = study.RunFleetStream(study.FleetConfig{Users: 8, Seed: 42, Workers: 2})
	}()
	go func() {
		defer wg.Done()
		RunGrid(Options{Seed: 1, Runs: 2, Parallel: 2}, []VideoRun{{
			Video:      quickVideo(),
			Resolution: dash.R480p,
			FPS:        60,
			Pressure:   proc.Moderate,
		}})
	}()
	wg.Wait()
	if fleetErr != nil {
		t.Fatalf("RunFleetStream: %v", fleetErr)
	}
}
