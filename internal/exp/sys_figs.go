package exp

import (
	"fmt"
	"time"

	"coalqoe/internal/dash"
	"coalqoe/internal/device"
	"coalqoe/internal/player"
	"coalqoe/internal/plot"
	"coalqoe/internal/proc"
	"coalqoe/internal/stats"
	"coalqoe/internal/trace"
)

// videoThreads matches the paper's §5 "video client threads":
// SurfaceFlinger, MediaCodec, and the Firefox process threads.
func videoThreads() trace.ThreadFilter {
	return trace.AnyOf(trace.ByProcess(player.Firefox.Name), trace.ByName("SurfaceFlinger"))
}

// profiledCell is the §5 profiling workload: 480p at 60 FPS on the
// Nokia 1, at the given state, retaining the device for trace queries.
func profiledCell(o Options, state proc.Level) VideoRun {
	return VideoRun{
		Profile:    device.Nokia1,
		Video:      o.video(dash.Travel),
		Resolution: dash.R480p,
		FPS:        60,
		Pressure:   state,
		KeepDevice: true,
	}
}

// profiledLevels runs runsPer repeats of the profiling workload per
// pressure level on the executor and returns results per level.
func profiledLevels(o Options, runsPer int, levels []proc.Level) [][]Result {
	oc := o
	oc.Runs = runsPer
	cells := make([]VideoRun, len(levels))
	for i, lvl := range levels {
		cells[i] = profiledCell(o, lvl)
	}
	return RunGrid(oc, cells)
}

func init() {
	register("tab4", "video thread time-in-state, Normal vs Moderate", func(o Options) Report {
		o.applyDefaults()
		r := Report{ID: "tab4", Title: "Time in scheduler states for video client threads (480p60, Nokia 1)"}
		states := []trace.State{trace.Running, trace.Runnable, trace.RunnablePreempted}
		// Paper: mean over three runs.
		runsPer := 3
		if o.Quick {
			runsPer = 1
		}
		levels := []proc.Level{proc.Normal, proc.Moderate}
		grid := profiledLevels(o, runsPer, levels)
		means := map[proc.Level]map[trace.State]float64{}
		for li, lvl := range levels {
			means[lvl] = map[trace.State]float64{}
			for _, res := range grid[li] {
				for _, st := range states {
					means[lvl][st] += res.Device.Tracer.TimeInState(videoThreads(), st).Seconds() / float64(runsPer)
				}
			}
		}
		r.Addf("%-22s %10s %10s %10s", "state", "Normal(s)", "Moderate(s)", "increase")
		paper := map[trace.State]float64{trace.Running: -8.5, trace.Runnable: 24.2, trace.RunnablePreempted: 97.8}
		for _, st := range states {
			n, m := means[proc.Normal][st], means[proc.Moderate][st]
			incr := 0.0
			if n > 0 {
				incr = 100 * (m - n) / n
			}
			r.Addf("%-22s %9.1fs %9.1fs %+9.1f%%  (paper: %+.1f%%)", st, n, m, incr, paper[st])
		}
		return r
	})

	register("tab5", "mmcqd preemption statistics, Normal vs Moderate", func(o Options) Report {
		o.applyDefaults()
		r := Report{ID: "tab5", Title: "Preemptions of video threads by mmcqd (480p60, Nokia 1)"}
		type row struct {
			count  float64
			ranFor float64
			waited float64
		}
		runsPer := 3
		if o.Quick {
			runsPer = 1
		}
		levels := []proc.Level{proc.Normal, proc.Moderate}
		grid := profiledLevels(o, runsPer, levels)
		rows := map[proc.Level]*row{}
		for li, lvl := range levels {
			rows[lvl] = &row{}
			for _, res := range grid[li] {
				ps := res.Device.Tracer.PreemptionsBy(trace.ByName("mmcqd"), videoThreads())
				rows[lvl].count += float64(ps.Count) / float64(runsPer)
				rows[lvl].ranFor += ps.PreemptorRanFor.Seconds() / float64(runsPer)
				rows[lvl].waited += ps.VictimsWaitedFor.Seconds() / float64(runsPer)
			}
		}
		n, m := rows[proc.Normal], rows[proc.Moderate]
		r.Addf("%-42s %10s %10s %8s", "metric", "Normal", "Moderate", "ratio")
		r.Addf("%-42s %10.1f %10.1f %8s  (paper: 26.6x)", "mean number of preemptions", n.count, m.count, ratioStr(m.count, n.count))
		r.Addf("%-42s %9.2fs %9.2fs %8s  (paper: 16.8x)", "mean time mmcqd runs after preemption", n.ranFor, m.ranFor, ratioStr(m.ranFor, n.ranFor))
		r.Addf("%-42s %9.2fs %9.2fs %8s  (paper: 27.5x)", "mean time video waits to get CPU back", n.waited, m.waited, ratioStr(m.waited, n.waited))
		r.Addf("(our Normal baseline is nearly interference-free, so the ratios degenerate;")
		r.Addf(" the Moderate absolutes carry the comparison — see EXPERIMENTS.md)")
		return r
	})

	register("fig13", "kswapd time-in-state, Normal vs Moderate", func(o Options) Report {
		o.applyDefaults()
		r := Report{ID: "fig13", Title: "kswapd scheduler-state shares (480p60, Nokia 1)"}
		paper := map[proc.Level]map[trace.State]float64{
			proc.Normal:   {trace.Sleeping: 75, trace.Running: 6},
			proc.Moderate: {trace.Sleeping: 31, trace.Running: 56},
		}
		levels := []proc.Level{proc.Normal, proc.Moderate}
		grid := profiledLevels(o, 1, levels)
		for li, lvl := range levels {
			res := grid[li][0]
			breakdown := res.Device.Tracer.StateBreakdown(trace.ByName("kswapd"))
			var total time.Duration
			//coalvet:allow maporder integer Duration sum, order-insensitive
			for _, d := range breakdown {
				total += d
			}
			r.Addf("%s:", lvl)
			for _, st := range []trace.State{trace.Sleeping, trace.Runnable, trace.RunnablePreempted, trace.Running} {
				share := stats.Pct(breakdown[st].Seconds(), total.Seconds())
				note := ""
				if p, ok := paper[lvl][st]; ok {
					note = "  (paper: " + fmtPct(p) + ")"
				}
				r.Addf("  %-22s %5.1f%%%s", st, share, note)
			}
		}
		return r
	})

	register("fig14", "frame rate and lmkd CPU during a crashing session", func(o Options) Report {
		o.applyDefaults()
		r := Report{ID: "fig14", Title: "Instantaneous FPS and lmkd CPU until the client is killed (Nokia 1, Critical)"}
		var lmkdCPU []float64
		res := Run(VideoRun{
			Seed:       o.Seed + 1,
			Profile:    device.Nokia1,
			Video:      o.video(dash.Travel),
			Resolution: dash.R480p,
			FPS:        60,
			Pressure:   proc.Critical,
			OnSession: func(s *player.Session, d *device.Device) {
				var last time.Duration
				d.Clock.Every(time.Second, func() {
					cur := d.Lmkd.Thread().CPUTime()
					lmkdCPU = append(lmkdCPU, (cur-last).Seconds()*100)
					last = cur
				})
			},
		})
		r.Addf("fps      %s", plot.SparkFixed(res.Metrics.FPSTimeline, 60))
		r.Addf("lmkd cpu %s", plot.Spark(lmkdCPU))
		for i, f := range res.Metrics.FPSTimeline {
			cpu := 0.0
			if i < len(lmkdCPU) {
				cpu = lmkdCPU[i]
			}
			r.Addf("t=%3ds fps=%4.0f lmkdCPU=%5.2f%%", i, f, cpu)
		}
		if res.Metrics.Crashed {
			r.Addf("client killed by lmkd at t=%v (paper: crash coincides with lmkd CPU spike)",
				res.Metrics.CrashedAt.Round(time.Second))
		} else {
			r.Addf("client survived this run")
		}
		return r
	})

	register("fig15", "FPS and process kills under organic pressure", func(o Options) Report {
		o.applyDefaults()
		r := Report{ID: "fig15", Title: "Rendered FPS and kills: organic Normal vs Moderate (Nokia 1, 480p60)"}
		type variant struct {
			apps  int
			label string
			kills []float64
		}
		variants := []*variant{
			{apps: 0, label: "Normal (no background apps)"},
			{apps: 8, label: "Moderate (8 background apps)"},
		}
		cells := make([]VideoRun, len(variants))
		for i, v := range variants {
			v := v
			cells[i] = VideoRun{
				Profile:     device.Nokia1,
				Video:       o.video(dash.Travel),
				Resolution:  dash.R480p,
				FPS:         60,
				OrganicApps: v.apps,
				KeepDevice:  true,
				// The kills timeline is private to this cell's single
				// run, so the executor can run variants concurrently.
				OnSession: func(s *player.Session, d *device.Device) {
					d.Clock.Every(time.Second, func() {
						v.kills = append(v.kills, float64(len(d.Table.Kills())))
					})
				},
			}
		}
		oc := o
		oc.Runs = 1
		grid := RunGrid(oc, cells)
		for i, v := range variants {
			res := grid[i][0]
			r.Addf("%s: drops=%.1f%% crashed=%v", v.label, res.Metrics.EffectiveDropRate, res.Metrics.Crashed)
			r.Addf("  fps   %s", plot.SparkFixed(plot.Downsample(res.Metrics.FPSTimeline, 72), 60))
			r.Addf("  kills %s (final %d)", plot.Spark(plot.Downsample(v.kills, 72)), len(res.Device.Table.Kills()))
		}
		return r
	})
}

// ratioStr renders a/b, degenerating gracefully when the baseline is 0.
func ratioStr(a, b float64) string {
	if b == 0 {
		if a > 0 {
			return "inf"
		}
		return "n/a"
	}
	return fmt.Sprintf("%.1fx", a/b)
}

func fmtPct(p float64) string { return fmt.Sprintf("%.0f%%", p) }
