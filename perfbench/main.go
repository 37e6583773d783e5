// Command perfbench is the repository's end-to-end benchmark. It drives
// the simulator and the serving stack through their public Go APIs
// from one goroutine, over a fixed list of operations generated from
// the workload seed, checks every operation's output, and prints one
// JSON result line. See README.md in this directory for the workloads,
// the metrics and their start and stop events.
//
//	perfbench --workload serve --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// Workload is one benchmark workload. Setup builds the inputs and a
// fresh program state and plays a fixed warm-up; Op runs operation i
// against that state and checks its output.
type Workload interface {
	Setup() error
	Ops() int
	Op(i int, tr *Tracer) error
	// Check verifies the accounting of the whole phase since Setup.
	Check() error
	// Fingerprint hashes every output since Setup.
	Fingerprint() uint64
	// Layers reports the per-layer metrics of the traced phase since
	// Setup.
	Layers() (map[string]float64, error)
}

// opsPerSecond sets each workload's fixed op count: --seconds times
// this rate, calibrated so a run takes about --seconds on a 2-core
// x86-64 host. The count never depends on how fast a run goes.
var opsPerSecond = map[string]float64{
	"session-clean":    30,
	"session-pressure": 24,
	"serve":            25000,
	"overload":         22,
}

func newWorkload(name string, seed int64, ops int) Workload {
	switch name {
	case "session-clean":
		return newSessionWorkload(seed, ops, false)
	case "session-pressure":
		return newSessionWorkload(seed, ops, true)
	case "serve":
		return newServeWorkload(seed, ops)
	case "overload":
		return newOverloadWorkload(seed, ops)
	}
	return nil
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// layerUnits lists every per-layer metric. A layer a workload does not
// run reports 0.
var layerUnits = [][2]string{
	{"device.boot_us", "us"},
	{"mempress.ramp_us", "us"},
	{"player.play_us", "us"},
	{"player.host_us_per_sim_s", "us/s"},
	{"abr.decide_us", "us"},
	{"abr.decisions", "count"},
	{"qoe.score_us", "us"},
	{"kswapd.cpu_sim_ms", "ms"},
	{"lmkd.cpu_sim_ms", "ms"},
	{"blockio.mmcqd_cpu_sim_ms", "ms"},
	{"blockio.requests", "count"},
	{"mem.swapins", "pages"},
	{"sched.preemptions", "count"},
	{"player.crashes", "count"},
	{"player.frames_dropped", "count"},
	{"cdn.hit_ratio", "ratio"},
	{"cdn.fills", "count"},
	{"cdn.evictions", "count"},
	{"cdn.rejected", "count"},
	{"serve.hit_us", "us"},
	{"serve.miss_us", "us"},
	{"cdn.governor_us", "us"},
	{"loadgen.host_us_per_attempt", "us"},
	{"loadgen.attempts_per_req", "ratio"},
	{"loadgen.doomed_frac", "ratio"},
	{"loadgen.tail_goodput_mb", "MB"},
	{"cdn.shed", "count"},
	{"cdn.queued", "count"},
	{"cdn.brownout", "count"},
	{"trace.overhead_pct", "%"},
}

// phaseRounds is how many consecutive rounds a timed pass is cut into.
// Each round starts from a collected heap with the peak resident set
// reset, and ops_per_s and max_rss_mb are medians over the rounds, so
// one slow stretch or one badly timed collection does not set them.
const phaseRounds = 9

// Phase is one timed pass over a workload's op list.
type Phase struct {
	Ops, Failed int
	RefFailed   int // failed ops of the reference workload
	FirstErr    error
	CheckErr    error
	Wall        time.Duration   // sum over rounds of first op start to last op end
	Rates       []float64       // ops per second of each round
	PeakRSSMB   []float64       // peak resident set of each round
	OpTime      time.Duration   // sum of per-op times
	RefTime     time.Duration   // sum of the reference workload's op times
	Lat         []time.Duration // per-op times, in op order
	AllocBytes  uint64          // runtime TotalAlloc delta over the rounds
	Fingerprint uint64
}

// timePhase runs every op once, in phaseRounds rounds, timing each op
// from just before the call to just after it returns. With a reference
// workload, set up like w, each op of w is preceded by the same op of
// ref run untraced and timed on its own, so the two sums see the same
// host conditions.
func timePhase(w Workload, tr *Tracer, ref Workload) (Phase, error) {
	p := Phase{Ops: w.Ops(), Lat: make([]time.Duration, w.Ops())}
	if p.Ops == 0 {
		return p, fmt.Errorf("workload has no operations")
	}
	rounds := min(phaseRounds, p.Ops)
	for r := 0; r < rounds; r++ {
		lo, hi := r*p.Ops/rounds, (r+1)*p.Ops/rounds
		// Start from a collected heap handed back to the OS, and count
		// the peak resident set from here, so neither set-up nor an
		// earlier round leaves a trace in it.
		debug.FreeOSMemory()
		resetPeakRSS()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i := lo; i < hi; i++ {
			if ref != nil {
				t0 := time.Now()
				if err := ref.Op(i, nil); err != nil {
					if p.FirstErr == nil {
						p.FirstErr = fmt.Errorf("untraced op %d: %w", i, err)
					}
					p.RefFailed++
				}
				p.RefTime += time.Since(t0)
			}
			t0 := time.Now()
			err := w.Op(i, tr)
			p.Lat[i] = time.Since(t0)
			if err != nil {
				if p.FirstErr == nil {
					p.FirstErr = fmt.Errorf("op %d: %w", i, err)
				}
				p.Failed++
			}
		}
		wall := time.Since(start)
		runtime.ReadMemStats(&m1)
		p.Wall += wall
		p.Rates = append(p.Rates, float64(hi-lo)/wall.Seconds())
		p.PeakRSSMB = append(p.PeakRSSMB, peakRSSMB())
		p.AllocBytes += m1.TotalAlloc - m0.TotalAlloc
	}
	for _, d := range p.Lat {
		p.OpTime += d
	}
	p.CheckErr = w.Check()
	p.Fingerprint = w.Fingerprint()
	return p, nil
}

func main() {
	// One driving goroutine on one processor: with a second processor,
	// the collector's background workers run on a core whose speed
	// depends on the host's other tenants, and a run's speed with them.
	runtime.GOMAXPROCS(1)
	name := flag.String("workload", "", "session-clean, session-pressure, serve or overload")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := flag.Int("seconds", 10, "run length; sets the fixed op count")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	rate, ok := opsPerSecond[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload one of session-clean|session-pressure|serve|overload, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	ops := int(math.Ceil(rate * float64(*seconds)))
	res, err := run(*name, *seed, ops, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(name string, seed int64, ops int, traced bool) (*result, error) {
	w := newWorkload(name, seed, ops)
	if traced {
		return runTraced(name, seed, ops, w)
	}
	setups := make([]float64, setupReps)
	for r := range setups {
		t0 := time.Now()
		if err := w.Setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups[r] = time.Since(t0).Seconds()
	}
	e2e, err := timePhase(w, nil, nil)
	if err != nil {
		return nil, err
	}
	report(name, seed, "end-to-end", e2e)
	sorted := sortedCopy(e2e.Lat)
	tail := tailOf(sorted)
	fmt.Printf("op_tail_us is p%g of %d samples, %d beyond it\n", tail.Percentile, tail.Samples, tail.Beyond)
	return &result{
		Correct:   e2e.Failed == 0 && e2e.CheckErr == nil,
		Attempted: e2e.Ops,
		Failed:    e2e.Failed,
		Metrics: map[string]metric{
			"setup_s":         {medianFloat(setups), "s"},
			"ops_per_s":       {medianFloat(e2e.Rates), "1/s"},
			"op_p50_us":       {us(median(sorted)), "us"},
			"op_tail_us":      {us(tail.Value), "us"},
			"alloc_kb_per_op": {float64(e2e.AllocBytes) / 1024 / float64(e2e.Ops), "KiB"},
			"max_rss_mb":      {trimmedMean(e2e.PeakRSSMB), "MiB"},
		},
	}, nil
}

// runTraced runs the traced pass. It alternates op by op with an
// untraced copy of the workload, set up afresh like w: the copy's
// fingerprint must equal the traced one, and the ratio of their op
// times is the tracing overhead, free of the host's drift between
// passes.
func runTraced(name string, seed int64, ops int, w Workload) (*result, error) {
	ref := newWorkload(name, seed, ops)
	if err := w.Setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if err := ref.Setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	tr := newTracer()
	tp, err := timePhase(w, tr, ref)
	if err != nil {
		return nil, err
	}
	report(name, seed, "traced", tp)
	refCheck := ref.Check()
	if refCheck != nil {
		fmt.Printf("untraced accounting check failed: %v\n", refCheck)
	}
	res := &result{
		Correct:   tp.Failed == 0 && tp.CheckErr == nil && tp.RefFailed == 0 && refCheck == nil,
		Attempted: 2 * tp.Ops,
		Failed:    tp.Failed + tp.RefFailed,
		Metrics:   map[string]metric{},
	}
	if fp := ref.Fingerprint(); fp != tp.Fingerprint {
		fmt.Printf("traced fingerprint %016x differs from untraced %016x\n", tp.Fingerprint, fp)
		res.Correct = false
	}
	layers, err := w.Layers()
	if err != nil {
		return nil, fmt.Errorf("per-layer metrics: %w", err)
	}
	layers["trace.overhead_pct"] = 100 * (float64(tp.OpTime)/float64(tp.RefTime) - 1)
	for _, lu := range layerUnits {
		res.Metrics[lu[0]] = metric{layers[lu[0]], lu[1]}
	}
	path := fmt.Sprintf(".bench_build/spans/%s-seed%d.csv", name, seed)
	if err := tr.Write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("%d spans written to %s\n", len(tr.Spans()), path)
	return res, nil
}

// report prints a phase's human-readable summary and any failure.
func report(name string, seed int64, pass string, p Phase) {
	fmt.Printf("%s seed %d %s: %d ops, %d failed, %.3f s, fingerprint %016x\n",
		name, seed, pass, p.Ops, p.Failed, p.Wall.Seconds(), p.Fingerprint)
	fmt.Printf("rounds: ops/s %.4g, peak RSS MiB %.4g\n", p.Rates, p.PeakRSSMB)
	if p.FirstErr != nil {
		fmt.Printf("first failure: %v\n", p.FirstErr)
	}
	if p.CheckErr != nil {
		fmt.Printf("accounting check failed: %v\n", p.CheckErr)
	}
}
