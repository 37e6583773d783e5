// Command coalctl runs the paper's experiments: every figure and table
// has a registered regenerator. Independent runs (grid cells × repeats)
// fan out across a worker pool; output is byte-identical at any
// parallelism.
//
//	coalctl list
//	coalctl run fig9                 # full fidelity (5 runs, 3-minute clips)
//	coalctl -quick run tab5          # fast pass
//	coalctl -parallel 8 run fig9     # explicit worker count (0 = GOMAXPROCS)
//	coalctl -faults memstorm run tab2  # inject a fault plan into every run
//	coalctl -arena                   # ABR tournament -> leaderboard on stdout
//	coalctl -quick -arena -out results  # fast pass; also writes results/arena.txt
//	coalctl run all
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"coalqoe/internal/arena"
	"coalqoe/internal/atomicio"
	"coalqoe/internal/exp"
	"coalqoe/internal/faults"
	"coalqoe/internal/proc"
	"coalqoe/internal/telemetry"
)

func main() {
	quick := flag.Bool("quick", false, "fewer runs and shorter clips")
	seed := flag.Int64("seed", 0, "base seed")
	runs := flag.Int("runs", 0, "override repetition count")
	parallel := flag.Int("parallel", 0, "executor worker count (0 = GOMAXPROCS, 1 = serial)")
	noProgress := flag.Bool("no-progress", false, "suppress the live progress line on stderr")
	outDir := flag.String("out", "", "also write each report to <dir>/<id>.txt")
	telemetryDir := flag.String("telemetry", "", "sample device metrics every 3s and write one CSV per run to <dir>/<id>-runNNN.csv")
	faultPlan := flag.String("faults", "", "inject a fault plan into every run ("+planNames()+")")
	runArena := flag.Bool("arena", false, "run the ABR tournament and print the leaderboard")
	arenaTrace := flag.String("arena-trace", "", "with -arena: also export one instrumented run's decision trace (chrome://tracing JSON) to this file")
	flag.Parse()
	args := flag.Args()
	if *runArena {
		doArena(arena.Config{
			Quick: *quick, Seed: *seed, Runs: *runs, Parallel: *parallel,
		}, *outDir, *arenaTrace, !*noProgress)
		return
	}
	if len(args) == 0 {
		usage()
	}
	switch args[0] {
	case "list":
		for _, e := range exp.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
	case "run":
		if len(args) < 2 {
			usage()
		}
		opts := exp.Options{Quick: *quick, Seed: *seed, Runs: *runs, Parallel: *parallel}
		if *faultPlan != "" {
			plan, err := faults.Lookup(*faultPlan)
			if err != nil {
				fatal(err)
			}
			opts.Faults = &plan
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fatal(err)
			}
		}
		if *telemetryDir != "" {
			if err := os.MkdirAll(*telemetryDir, 0o755); err != nil {
				fatal(err)
			}
			opts.Telemetry = true
		}
		if args[1] == "all" {
			for _, e := range exp.All() {
				runOne(e, opts, *outDir, *telemetryDir, !*noProgress)
			}
			return
		}
		for _, id := range args[1:] {
			e, err := exp.Find(id)
			if err != nil {
				fatal(err)
			}
			runOne(e, opts, *outDir, *telemetryDir, !*noProgress)
		}
	default:
		usage()
	}
}

func runOne(e exp.Experiment, opts exp.Options, outDir, telemetryDir string, progress bool) {
	start := time.Now()
	totalRuns := 0
	batchTotal := 0
	if progress || telemetryDir != "" {
		opts.Progress = func(ev exp.ProgressEvent) {
			// The executor serializes progress callbacks. Track the
			// batch size — the telemetry writer below needs it — and
			// repaint one stderr status line in place.
			batchTotal = ev.Total
			if progress {
				totalRuns = ev.Total
				fmt.Fprintf(os.Stderr, "\r%-10s %d/%d runs (%d in flight, %v elapsed)\x1b[K",
					e.ID, ev.Done, ev.Total, ev.Started-ev.Done, time.Since(start).Round(time.Second))
			}
		}
	}
	if telemetryDir != "" {
		// One CSV per run, numbered by batch index: file k holds the
		// same run at any parallelism. An experiment may execute
		// several batches; they never interleave (the executor drains
		// one before the next starts), so once a batch has delivered
		// its full total the numbering shifts past it.
		offset, delivered := 0, 0
		opts.OnTelemetry = func(run int, dump *telemetry.Dump) {
			path := filepath.Join(telemetryDir, fmt.Sprintf("%s-run%03d.csv", e.ID, offset+run+1))
			f, err := atomicio.Create(path)
			if err != nil {
				fatal(err)
			}
			if err := dump.WriteCSV(f); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Commit(); err != nil {
				fatal(err)
			}
			delivered++
			if delivered == batchTotal {
				offset += batchTotal
				delivered = 0
			}
		}
	}
	rep := e.Run(opts)
	if progress {
		fmt.Fprintf(os.Stderr, "\r\x1b[K")
	}
	fmt.Print(rep)
	fmt.Printf("(%s completed in %v", e.ID, time.Since(start).Round(time.Millisecond))
	if totalRuns > 0 {
		fmt.Printf(", %d runs on %d workers", totalRuns, opts.Workers())
	}
	fmt.Print(")\n\n")
	if outDir != "" {
		path := filepath.Join(outDir, e.ID+".txt")
		if err := atomicio.WriteFile(path, []byte(rep.String()), 0o644); err != nil {
			fatal(err)
		}
	}
}

// doArena runs the ABR tournament: leaderboard to stdout, and to
// <outDir>/arena.txt when -out is set.
func doArena(cfg arena.Config, outDir, tracePath string, progress bool) {
	start := time.Now()
	if progress {
		cfg.Progress = func(ev exp.ProgressEvent) {
			fmt.Fprintf(os.Stderr, "\rarena %d/%d runs (%d in flight, %v elapsed)\x1b[K",
				ev.Done, ev.Total, ev.Started-ev.Done, time.Since(start).Round(time.Second))
		}
	}
	res := arena.Run(cfg)
	if progress {
		fmt.Fprintf(os.Stderr, "\r\x1b[K")
	}
	if err := res.WriteLeaderboard(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Printf("(arena completed in %v)\n", time.Since(start).Round(time.Millisecond))
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fatal(err)
		}
		f, err := atomicio.Create(filepath.Join(outDir, "arena.txt"))
		if err != nil {
			fatal(err)
		}
		if err := res.WriteLeaderboard(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Commit(); err != nil {
			fatal(err)
		}
	}
	if tracePath != "" {
		f, err := atomicio.Create(tracePath)
		if err != nil {
			fatal(err)
		}
		// The showcase: the objective-optimizing entrant under the
		// paper's pressure storm, on the weakest device.
		err = arena.WriteDecisionTrace(cfg, "memopt", proc.Moderate, "memstorm", f)
		if err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Commit(); err != nil {
			fatal(err)
		}
	}
}

func planNames() string {
	names := make([]string, 0, len(faults.Plans()))
	for _, sp := range faults.Plans() {
		names = append(names, sp.Name)
	}
	return strings.Join(names, ", ")
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: coalctl [flags] list | run <id>... | run all")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "coalctl:", err)
	os.Exit(1)
}
