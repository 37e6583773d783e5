// Package coalqoe's benchmark harness regenerates every table and
// figure of the paper. One testing.B benchmark per experiment: the
// measured wall time is the cost of reproducing that result, and the
// report itself is emitted through b.Log so
//
//	go test -bench=Figure9 -benchtime=1x -v
//
// prints the regenerated rows. Benchmarks run the quick configuration
// (fewer repetitions, shorter clips); use cmd/coalctl for
// full-fidelity runs.
package main

import (
	"testing"
	"time"

	"coalqoe/internal/dash"
	"coalqoe/internal/device"
	"coalqoe/internal/exp"
	"coalqoe/internal/proc"
)

// benchExperiment runs one registered experiment per benchmark
// iteration, seeding from the iteration index for variety.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := exp.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep := e.Run(exp.Options{Quick: true, Seed: int64(i)})
		if len(rep.Lines) == 0 {
			b.Fatalf("experiment %s produced no output", id)
		}
		if i == 0 {
			b.Log("\n" + rep.String())
		}
	}
}

// §3 user study (Figures 1–6, Table 1 study rows).

func BenchmarkTable1(b *testing.B)  { benchExperiment(b, "tab1") }
func BenchmarkFigure1(b *testing.B) { benchExperiment(b, "fig1") }
func BenchmarkFigure2(b *testing.B) { benchExperiment(b, "fig2") }
func BenchmarkFigure3(b *testing.B) { benchExperiment(b, "fig3") }
func BenchmarkFigure4(b *testing.B) { benchExperiment(b, "fig4") }
func BenchmarkFigure5(b *testing.B) { benchExperiment(b, "fig5") }
func BenchmarkFigure6(b *testing.B) { benchExperiment(b, "fig6") }

// §4 controlled video experiments (Figures 8–12, Tables 2–3).

func BenchmarkFigure8(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFigure9(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFigure10(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFigure11(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFigure12(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkTable2(b *testing.B)   { benchExperiment(b, "tab2") }
func BenchmarkTable3(b *testing.B)   { benchExperiment(b, "tab3") }

// §5 system-level analysis (Figures 13–15, Tables 4–5).

func BenchmarkFigure13(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFigure14(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkFigure15(b *testing.B) { benchExperiment(b, "fig15") }
func BenchmarkTable4(b *testing.B)   { benchExperiment(b, "tab4") }
func BenchmarkTable5(b *testing.B)   { benchExperiment(b, "tab5") }

// §6 opportunities (Figures 16–17) and Appendix B (Figures 18–19).

func BenchmarkFigure16(b *testing.B) { benchExperiment(b, "fig16") }
func BenchmarkFigure17(b *testing.B) { benchExperiment(b, "fig17") }
func BenchmarkFigure18(b *testing.B) { benchExperiment(b, "fig18") }
func BenchmarkFigure19(b *testing.B) { benchExperiment(b, "fig19") }

// Extensions: the §6/§7 proposal as a working ABR, plus the DESIGN.md
// ablations.

func BenchmarkMemoryAwareABR(b *testing.B)     { benchExperiment(b, "memabr") }
func BenchmarkAblationZRAM(b *testing.B)       { benchExperiment(b, "abl-zram") }
func BenchmarkAblationMmcqd(b *testing.B)      { benchExperiment(b, "abl-mmcqd") }
func BenchmarkAblationCPU(b *testing.B)        { benchExperiment(b, "abl-cpu") }
func BenchmarkAblationAdaptOrder(b *testing.B) { benchExperiment(b, "abl-order") }

func BenchmarkLadderOptimization(b *testing.B) { benchExperiment(b, "ladder") }
func BenchmarkAblationKswapdPin(b *testing.B)  { benchExperiment(b, "abl-kswapd-pin") }

// Executor scaling: the same grid experiment pinned to one worker vs
// fanned across GOMAXPROCS. Output is byte-identical either way (see
// internal/exp/exec_test.go); only wall clock changes. Recorded numbers
// live in results/parallel-bench.txt.

func benchExperimentWorkers(b *testing.B, id string, workers int) {
	b.Helper()
	e, err := exp.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep := e.Run(exp.Options{Quick: true, Seed: int64(i), Parallel: workers})
		if len(rep.Lines) == 0 {
			b.Fatalf("experiment %s produced no output", id)
		}
	}
}

func BenchmarkFigure9Serial(b *testing.B)    { benchExperimentWorkers(b, "fig9", 1) }
func BenchmarkFigure9Parallel(b *testing.B)  { benchExperimentWorkers(b, "fig9", 0) }
func BenchmarkFigure12Serial(b *testing.B)   { benchExperimentWorkers(b, "fig12", 1) }
func BenchmarkFigure12Parallel(b *testing.B) { benchExperimentWorkers(b, "fig12", 0) }
func BenchmarkTable2Serial(b *testing.B)     { benchExperimentWorkers(b, "tab2", 1) }
func BenchmarkTable2Parallel(b *testing.B)   { benchExperimentWorkers(b, "tab2", 0) }

// Telemetry overhead: one fig9-style VideoRun with telemetry off (the
// default) and sampled at the 3s SignalCapturer cadence. The disabled
// case is the one that must stay free: every instrument call is a
// nil-receiver no-op. Recorded numbers live in
// results/telemetry-bench.txt.

func benchVideoRun(b *testing.B, telemetry bool) {
	b.Helper()
	cfg := exp.VideoRun{
		Profile:    device.Nokia1,
		Video:      dash.TestVideos[0],
		Resolution: dash.R720p,
		FPS:        30,
		Pressure:   proc.Moderate,
		DeviceOpts: device.Options{Telemetry: telemetry},
	}
	cfg.Video.Duration = 60 * time.Second
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := cfg
		c.Seed = int64(i) + 1
		res := exp.Run(c)
		if res.Metrics.FramesRendered == 0 {
			b.Fatal("nothing rendered")
		}
	}
}

func BenchmarkRunTelemetryOff(b *testing.B)  { benchVideoRun(b, false) }
func BenchmarkRunTelemetryOn3s(b *testing.B) { benchVideoRun(b, true) }
