package exp

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the parallel run executor. Every registered experiment
// replays its independent VideoRuns (grid cells × repeats) through it,
// fanning work across a worker pool while keeping the output
// byte-identical to a serial execution:
//
//   - seeds are assigned up front, before any worker starts, using the
//     exact serial rule (per-cell base seed + 1..n per repeat);
//   - results land in a pre-sized slice at their input index, so report
//     rows are formatted in input order regardless of completion order;
//   - each VideoRun owns its device, clock and RNG, so runs share no
//     state (the -race tests in exec_test.go hold the executor to it).

// ProgressEvent describes executor progress within one batch of runs.
// Events fire when a run is handed to a worker and when it completes.
type ProgressEvent struct {
	// Started counts runs handed to workers so far.
	Started int
	// Done counts runs completed so far.
	Done int
	// Total is the batch size.
	Total int
}

// Workers resolves the worker-pool size: Options.Parallel when set,
// otherwise GOMAXPROCS.
func (o Options) Workers() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// runSafe is Run behind a panic barrier: a run that panics yields a
// Result marked Failed with the panic value, instead of taking down
// the whole grid (and, in the pool, the process — a panic in a worker
// goroutine is otherwise unrecoverable). Results stay input-ordered,
// so parallel output remains byte-identical to serial even when some
// runs fail.
func runSafe(cfg VideoRun) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			res = Result{Failed: true, FailReason: fmt.Sprintf("panic: %v", r)}
		}
	}()
	return Run(cfg)
}

// runJobs executes the fully-seeded runs across the worker pool and
// returns results in input order. A pool of one worker runs the jobs
// serially, in input order.
func runJobs(o Options, jobs []VideoRun) []Result {
	for i := range jobs {
		if o.Telemetry {
			jobs[i].DeviceOpts.Telemetry = true
		}
		if o.Faults != nil && jobs[i].Faults == nil {
			jobs[i].Faults = o.Faults
		}
		if o.Digest {
			jobs[i].Digest = true
		}
	}
	results := make([]Result, len(jobs))
	workers := o.Workers()
	if workers > len(jobs) {
		workers = len(jobs)
	}

	var mu sync.Mutex
	started, done := 0, 0
	emit := func() {
		if o.Progress != nil {
			o.Progress(ProgressEvent{Started: started, Done: done, Total: len(jobs)})
		}
	}

	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(jobs) {
					return
				}
				mu.Lock()
				started++
				emit()
				mu.Unlock()
				results[i] = runSafe(jobs[i])
				mu.Lock()
				done++
				emit()
				if o.OnTelemetry != nil && results[i].Telemetry != nil {
					o.OnTelemetry(i, results[i].Telemetry)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return results
}

// RunGrid executes o.Runs repeats of every cell across the worker pool
// and returns results grouped per cell, in cell order. Each cell's
// repeats are seeded CellSeed(o.Seed, cell)+1..+o.Runs — the serial
// assignment rule applied to a per-cell base — so cells are mutually
// independent yet individually reproducible, and parallel output is
// byte-identical to serial.
func RunGrid(o Options, cells []VideoRun) [][]Result {
	o.applyDefaults()
	jobs := make([]VideoRun, 0, len(cells)*o.Runs)
	for _, cell := range cells {
		base := CellSeed(o.Seed, cell)
		for i := 0; i < o.Runs; i++ {
			c := cell
			//coalvet:allow seedlane within-cell repeats off an FNV-derived CellSeed base; the serial rule is pinned by digest goldens
			c.Seed = base + int64(i) + 1
			jobs = append(jobs, c)
		}
	}
	flat := runJobs(o, jobs)
	out := make([][]Result, len(cells))
	for i := range cells {
		out[i] = flat[i*o.Runs : (i+1)*o.Runs]
	}
	return out
}

// CellSeed derives the base seed for one grid cell: a stable FNV-1a
// hash of the cell's identifying conditions (device, client, video,
// resolution, frame rate, pressure state, organic-app count, ladder)
// folded into the experiment seed. Before this derivation every cell of
// a grid replayed the identical baseSeed+1..+n sequence, making cells
// cross-correlated; hashing the conditions gives each cell its own seed
// lane while cells that share all conditions (e.g. an ablation's
// on/off variants, which differ only in device options) stay paired for
// low-variance A/B comparison.
func CellSeed(base int64, cell VideoRun) int64 {
	cell.applyDefaults()
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%s|%s|%s|%d|%d|%d|%v",
		cell.Profile.Name, cell.Client.Name, cell.Video.Title, cell.Video.Genre,
		cell.Resolution, cell.FPS, cell.Pressure, cell.OrganicApps, cell.FPSOptions)
	return base + int64(h.Sum64()&0x7fffffff)
}

// Unreached counts runs whose target pressure regime was never
// established before pressureTimeout. Averaging such runs into drop or
// crash statistics silently dilutes the measurement, so report rows
// carry an annotation whenever the count is non-zero (see regimeNote).
// Failed runs are skipped — they never got far enough for the regime
// question to be meaningful, and Failures covers them.
func Unreached(results []Result) int {
	n := 0
	for _, r := range results {
		if !r.Failed && !r.PressureReached {
			n++
		}
	}
	return n
}

// Failures counts runs the executor marked Failed (panic or deadline).
func Failures(results []Result) int {
	n := 0
	for _, r := range results {
		if r.Failed {
			n++
		}
	}
	return n
}

// regimeNote annotates a report row when some of its runs never reached
// the target pressure regime — or failed outright — so a mis-calibrated
// regime or a crashed/wedged run cannot masquerade as a clean
// measurement. (Folding failures in here keeps every existing report
// row honest without touching its call site.)
func regimeNote(results []Result) string {
	note := ""
	if u := Unreached(results); u > 0 {
		note += fmt.Sprintf("  [%d/%d runs never reached target regime]", u, len(results))
	}
	note += failNote(results)
	return note
}

// failNote annotates a report row with its failed-run count and the
// first failure's reason.
func failNote(results []Result) string {
	f := Failures(results)
	if f == 0 {
		return ""
	}
	reason := ""
	for _, r := range results {
		if r.Failed {
			reason = r.FailReason
			break
		}
	}
	return fmt.Sprintf("  [%d/%d runs failed: %s]", f, len(results), reason)
}
