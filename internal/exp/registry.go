package exp

import (
	"fmt"
	"sort"
	"time"

	"coalqoe/internal/dash"
	"coalqoe/internal/faults"
	"coalqoe/internal/telemetry"
)

// Options control experiment execution.
type Options struct {
	// Seed makes runs reproducible.
	Seed int64
	// Runs is the repetition count; the paper uses 5. Quick mode
	// defaults to 2.
	Runs int
	// Quick trades fidelity for speed: fewer runs, shorter videos,
	// smaller grids. Used by tests and the default bench invocations.
	Quick bool
	// Parallel is the executor worker count for independent runs.
	// 0 means GOMAXPROCS; 1 forces serial execution. Output is
	// byte-identical at any setting (see exec.go).
	Parallel int
	// Progress, when set, receives executor events as runs start and
	// complete. Callbacks may fire from worker goroutines, serialized by
	// the executor; keep them fast.
	Progress func(ProgressEvent)
	// Telemetry enables the metrics sampler on every run the executor
	// launches (see device.Options.Telemetry). The dumps are delivered
	// through OnTelemetry.
	Telemetry bool
	// OnTelemetry receives each run's telemetry dump together with its
	// batch index (input order, so index k is always the same run
	// regardless of worker count). Like Progress, callbacks may fire
	// from worker goroutines but are serialized by the executor. The
	// callback owns where the data goes — file I/O stays in cmd/.
	OnTelemetry func(run int, dump *telemetry.Dump)
	// Faults, when non-nil, injects the named fault plan into every run
	// the executor launches that does not already carry its own (see
	// VideoRun.Faults). The concrete windows derive from each run's seed,
	// so parallel output stays byte-identical to serial.
	Faults *faults.Spec
	// Digest enables the event-order digest on every run the executor
	// launches (see VideoRun.Digest). The determinism test battery uses
	// it to assert that serial and parallel executions dispatch exactly
	// the same kernel events.
	Digest bool
}

func (o *Options) applyDefaults() {
	if o.Runs <= 0 {
		if o.Quick {
			o.Runs = 2
		} else {
			o.Runs = 5
		}
	}
}

// video returns the experiment content: the paper's 3-minute clips, or
// a 1-minute cut in quick mode.
func (o Options) video(genre dash.Genre) dash.Video {
	v := dash.TestVideos[0]
	for _, tv := range dash.TestVideos {
		if tv.Genre == genre {
			v = tv
			break
		}
	}
	if o.Quick {
		v.Duration = 60 * time.Second
	}
	return v
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) Report
}

var registry []Experiment

func register(id, title string, run func(Options) Report) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// All returns every registered experiment, sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q (try `coalctl list`)", id)
}
