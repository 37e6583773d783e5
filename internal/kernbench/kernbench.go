// Package kernbench holds the kernel benchmark bodies shared between
// the per-package `go test -bench` wrappers and the cmd/coalbench
// binary. Keeping one implementation means the numbers in
// results/kernel-bench.txt, BENCH_5.json and an ad-hoc
// `go test -bench` run all measure exactly the same work.
//
// Every body calls b.ReportAllocs: allocations per op are the
// machine-independent half of each measurement, and the one a CI
// regression gate can hold to a tight threshold.
//
// All benchmark inputs are fixed and seeded — nothing here reads wall
// time or global randomness, so repeated runs measure identical
// simulated work.
package kernbench

import (
	"math/rand"
	"net/http"
	"strconv"
	"testing"
	"time"

	"coalqoe/internal/arena"
	"coalqoe/internal/cdn"
	"coalqoe/internal/dash"
	"coalqoe/internal/device"
	"coalqoe/internal/exp"
	"coalqoe/internal/mem"
	"coalqoe/internal/proc"
	"coalqoe/internal/sched"
	"coalqoe/internal/simclock"
	"coalqoe/internal/study"
	"coalqoe/internal/telemetry"
	"coalqoe/internal/trace"
	"coalqoe/internal/units"
)

// Entry names one benchmark of the suite.
type Entry struct {
	// Name is hierarchical ("clock/dispatch"); coalbench reports it
	// verbatim and the test wrappers map it onto Benchmark functions.
	Name string
	Fn   func(b *testing.B)
}

// Suite is the full kernel benchmark suite in report order.
var Suite = []Entry{
	{"clock/dispatch", ClockDispatch},
	{"clock/every", ClockEvery},
	{"clock/cancel", ClockCancel},
	{"sched/ticks", SchedTicks},
	{"mem/scan", MemScan},
	{"telemetry/sample", TelemetrySample},
	{"run/video60s", VideoRun60s},
	{"grid/fig9quick", GridFig9Quick},
	{"fleet/users10k", FleetUsers10k},
	{"arena/quick", ArenaQuick},
	{"serve/mixed", ServeMixed},
}

// Lookup returns the named suite entry.
func Lookup(name string) (Entry, bool) {
	for _, e := range Suite {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// clockEvents is the one-shot batch size of ClockDispatch and
// ClockCancel: large enough that heap depth matters, small enough to
// keep one op under a millisecond.
const clockEvents = 4096

// ClockDispatch measures the simclock hot loop: schedule a batch of
// one-shot events at scattered times, then dispatch them all. One op =
// one full schedule+dispatch cycle of clockEvents events.
func ClockDispatch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := simclock.New(1)
		fired := 0
		fn := func() { fired++ }
		for j := 0; j < clockEvents; j++ {
			// 977 is prime: times scatter instead of colliding.
			c.Schedule(time.Duration(j%977)*time.Millisecond, fn)
		}
		c.Run()
		if fired != clockEvents {
			b.Fatalf("fired %d of %d events", fired, clockEvents)
		}
	}
}

// ClockEvery measures periodic re-arm: 32 repeating timers with
// co-prime periods dispatched over 10 simulated seconds. One op = one
// full 10 s run (~28k dispatches).
func ClockEvery(b *testing.B) {
	periods := []time.Duration{7, 11, 13, 17}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := simclock.New(1)
		fired := 0
		fn := func() { fired++ }
		for j := 0; j < 32; j++ {
			c.Every(periods[j%len(periods)]*time.Millisecond, fn)
		}
		c.RunUntil(10 * time.Second)
		if fired == 0 {
			b.Fatal("no periodic events fired")
		}
	}
}

// ClockCancel measures cancellation cost and its effect on the queue:
// schedule clockEvents far-future one-shots, cancel every other one,
// then dispatch the rest. With true heap removal the dispatch loop
// only ever sees live events.
func ClockCancel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := simclock.New(1)
		fired := 0
		fn := func() { fired++ }
		evs := make([]*simclock.Event, clockEvents)
		for j := 0; j < clockEvents; j++ {
			evs[j] = c.Schedule(time.Duration(j%977)*time.Millisecond, fn)
		}
		for j := 0; j < clockEvents; j += 2 {
			evs[j].Cancel()
		}
		c.Run()
		if fired != clockEvents/2 {
			b.Fatalf("fired %d, want %d", fired, clockEvents/2)
		}
	}
}

// SchedTicks measures the scheduler step loop: 12 threads (2 RT, 10
// fair) on 4 cores, fed periodic work, over 5 simulated seconds. One
// op = 5000 ticks with realistic contention.
func SchedTicks(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := simclock.New(1)
		tr := trace.New(0)
		s := sched.New(c, sched.Config{
			CoreSpeeds: []float64{1, 1, 1, 1},
			Tracer:     tr,
		})
		var threads []*sched.Thread
		for j := 0; j < 2; j++ {
			threads = append(threads, s.Spawn("rt", "bench", sched.ClassRT, 0))
		}
		for j := 0; j < 10; j++ {
			threads = append(threads, s.Spawn("fair", "bench", sched.ClassFair, 0))
		}
		// Each thread gets a periodic burst: more total demand than the
		// cores supply, so the fair path (sorting, vruntime, preemption)
		// stays exercised throughout.
		for j, t := range threads {
			t := t
			cost := time.Duration(200+50*j) * time.Microsecond
			c.Every(time.Duration(2+j%5)*time.Millisecond, func() {
				t.Enqueue(cost, nil)
			})
		}
		c.RunUntil(5 * time.Second)
		s.Stop()
		c.RunUntil(6 * time.Second)
	}
}

// MemScan measures the reclaim accounting hot path: alloc/free churn
// with scan batches and a pressure read per simulated millisecond,
// over 2 simulated seconds. One op = 2000 scan+pressure rounds.
func MemScan(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := simclock.New(1)
		m := mem.New(c, mem.Config{
			Total:         1 * units.GiB,
			KernelReserve: 128 * units.MiB,
			ZRAMMax:       256 * units.MiB,
		})
		m.SetWorkingSet("fg", mem.WorkingSet{Anon: units.PagesOf(200 * units.MiB), File: units.PagesOf(120 * units.MiB)})
		m.SetWorkingSet("bg", mem.WorkingSet{Anon: units.PagesOf(80 * units.MiB), File: units.PagesOf(40 * units.MiB)})
		// Occupy most of RAM so scans find work.
		m.ForceAllocAnon(units.PagesOf(500 * units.MiB))
		m.FileRead(units.PagesOf(250 * units.MiB))
		m.MarkDirty(units.PagesOf(40 * units.MiB))
		sink := 0.0
		c.Every(time.Millisecond, func() {
			m.AllocAnon(units.PagesOf(1 * units.MiB))
			r := m.ScanBatch(128)
			if r.DirtyQueued > 0 {
				m.CompleteWriteback(r.DirtyQueued)
			}
			m.FreeAnon(units.PagesOf(1 * units.MiB))
			sink += m.Pressure()
		})
		c.RunUntil(2 * time.Second)
		if sink < 0 {
			b.Fatal("impossible pressure")
		}
	}
}

// TelemetrySample measures the sampler fast path: one Sample() over a
// registry of 36 series. One op = one sampling tick, the per-period
// cost a telemetry-enabled run pays.
func TelemetrySample(b *testing.B) {
	c := simclock.New(1)
	reg := telemetry.NewRegistry()
	for _, name := range []string{
		"a.count", "b.count", "c.count", "d.count", "e.count", "f.count",
		"g.count", "h.count", "i.count", "j.count", "k.count", "l.count",
	} {
		reg.Counter(name).Add(7)
	}
	for _, name := range []string{
		"a.gauge", "b.gauge", "c.gauge", "d.gauge", "e.gauge", "f.gauge",
		"g.gauge", "h.gauge", "i.gauge", "j.gauge", "k.gauge", "l.gauge",
	} {
		reg.Gauge(name).Set(3.5)
	}
	for _, name := range []string{
		"a.fn", "b.fn", "c.fn", "d.fn", "e.fn", "f.fn",
		"g.fn", "h.fn", "i.fn", "j.fn", "k.fn", "l.fn",
	} {
		reg.SampleFunc(name, func() float64 { return 1.25 })
	}
	s := telemetry.NewSampler(c, reg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample()
	}
}

// VideoRun60s measures one end-to-end experiment cell: a 60 s 720p30
// video on a Nokia 1 under moderate pressure — the workload class
// every grid is made of. One op = one full run.
func VideoRun60s(b *testing.B) {
	video := dash.TestVideos[0]
	video.Duration = 60 * time.Second
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := exp.Run(exp.VideoRun{
			//coalvet:allow seedlane benchmark iterations need distinct seeds, not independent lanes; correlation cannot bias ns/op
			Seed:       int64(i) + 1,
			Profile:    device.Nokia1,
			Video:      video,
			Resolution: dash.R720p,
			FPS:        30,
			Pressure:   proc.Moderate,
		})
		if res.Metrics.FramesRendered == 0 && !res.Metrics.Crashed {
			b.Fatal("run produced no frames and no crash")
		}
	}
}

// FleetUsers10k measures the streaming fleet engine: a 10k-user
// stratified panel folded through sharded aggregation with the
// synthetic per-user runner, so the number isolates the engine's own
// cost — population materialization, fold, merge — from kernel
// simulation speed. Shards and workers are pinned so every run
// measures identical work. One op = the whole panel.
func FleetUsers10k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		agg, _, err := study.RunFleetStream(study.FleetConfig{
			Seed:       10,
			Population: study.DefaultPopulation(10000, 10),
			Shards:     16,
			Workers:    4,
			Runner:     study.SyntheticRunner(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if agg.Recruited != 10000 {
			b.Fatalf("recruited %d of 10000", agg.Recruited)
		}
	}
}

// GridFig9Quick measures the headline end-to-end cost: the quick
// configuration of the paper's Figure 9 grid (resolution ladder ×
// pressure states), serially executed so the measurement is pure
// kernel speed, not executor parallelism. One op = the whole grid.
func GridFig9Quick(b *testing.B) {
	e, err := exp.Find("fig9")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep := e.Run(exp.Options{Quick: true, Seed: 9, Parallel: 1})
		if len(rep.Lines) == 0 {
			b.Fatal("fig9 produced no output")
		}
	}
}

// ArenaQuick measures the ABR tournament end to end: the quick arena
// (60 s clip, one run per cell) for every entrant, device and fault plan
// at Moderate pressure — the regime where the memory-aware rules and
// the reclaim path both work — serially, then the leaderboard fold.
// One op = 63 sessions plus scoring.
func ArenaQuick(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := arena.Run(arena.Config{
			Quick: true, Runs: 1, Seed: 0, Parallel: 1,
			Regimes: []proc.Level{proc.Moderate},
		})
		if len(res.Board) != len(arena.Entrants()) {
			b.Fatalf("leaderboard has %d rows, want %d", len(res.Board), len(arena.Entrants()))
		}
	}
}

// ServeMixed measures the in-process serving path: dash.Server.ServeHTTP
// over a coalescing 256 MiB cdn.Cache and a cdn.Governor, replaying a
// fixed loop of 4096 requests drawn Zipf (s = 1.1) from a fixed
// ranking of every rung and segment of the full ladder (1080 keys,
// about 3.6 GB), so the loop mixes cache hits with fills. The loop is
// played once before timing, so the cache starts warm. One op = one
// request.
func ServeMixed(b *testing.B) {
	m := dash.NewManifest(dash.TestVideos[0], dash.StandardFPS...)
	var paths []string
	for _, r := range m.Rungs {
		id := r.Resolution.String() + strconv.Itoa(r.FPS)
		for seg := 0; seg < m.Video.Segments(); seg++ {
			paths = append(paths, "/video/"+id+"/"+strconv.Itoa(seg))
		}
	}
	rng := rand.New(rand.NewSource(20))
	rng.Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(paths)-1))
	reqs := make([]*http.Request, 4096)
	for i := range reqs {
		r, err := http.NewRequest(http.MethodGet, "http://bench"+paths[zipf.Uint64()], nil)
		if err != nil {
			b.Fatal(err)
		}
		reqs[i] = r
	}
	epoch := time.Unix(1700000000, 0)
	srv := dash.NewServerOpts(m, dash.ServerOptions{
		Cache:    cdn.New(cdn.Config{Capacity: 256 << 20, Coalesce: true}),
		Governor: cdn.NewGovernor(cdn.GovernorConfig{MaxInflight: 16}, func() time.Time { return epoch }),
	})
	w := &discardResponse{h: make(http.Header)}
	serve := func(r *http.Request) {
		w.reset()
		srv.ServeHTTP(w, r)
		if w.status != http.StatusOK || w.n == 0 {
			b.Fatalf("%s: status %d, %d bytes", r.URL.Path, w.status, w.n)
		}
	}
	for _, r := range reqs {
		serve(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(reqs[i%len(reqs)])
	}
}

// discardResponse is an http.ResponseWriter that keeps the status and
// counts body bytes, and keeps no body.
type discardResponse struct {
	h      http.Header
	status int
	n      int
}

func (w *discardResponse) Header() http.Header { return w.h }

func (w *discardResponse) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *discardResponse) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.n += len(p)
	return len(p), nil
}

func (w *discardResponse) reset() {
	clear(w.h)
	w.status, w.n = 0, 0
}
