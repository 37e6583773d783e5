package exp

import (
	"fmt"
	"math/rand"
	"time"

	"coalqoe/internal/dash"
	"coalqoe/internal/device"
	"coalqoe/internal/player"
	"coalqoe/internal/plot"
	"coalqoe/internal/proc"
	"coalqoe/internal/qoe"
)

// pressureStates are the paper's §4.3 experimental conditions.
var pressureStates = []proc.Level{proc.Normal, proc.Moderate, proc.Critical}

// dropGrid runs the res × fps × pressure grid of Figures 9/11 on one
// device and reports mean effective drop rates with 95% CIs. The whole
// grid (cells × repeats) executes on the parallel run executor.
func dropGrid(o Options, profile device.Profile, client player.ClientProfile, resolutions []dash.Resolution, id, title string) Report {
	r := Report{ID: id, Title: title}
	r.Addf("%-6s %-4s %-9s %18s %9s", "res", "fps", "state", "drops (mean±ci)", "crashes")
	type rowKey struct {
		res   dash.Resolution
		fps   int
		state proc.Level
	}
	var rows []rowKey
	var cells []VideoRun
	for _, res := range resolutions {
		for _, fps := range []int{30, 60} {
			for _, state := range pressureStates {
				rows = append(rows, rowKey{res, fps, state})
				cells = append(cells, VideoRun{
					Profile:    profile,
					Client:     client,
					Video:      o.video(dash.Travel),
					Resolution: res,
					FPS:        fps,
					Pressure:   state,
				})
			}
		}
	}
	grid := RunGrid(o, cells)
	for i, k := range rows {
		results := grid[i]
		r.Addf("%-6s %-4d %-9s %14s%% %8.0f%%%s",
			k.res, k.fps, k.state, DropStats(results), CrashRate(results), regimeNote(results))
	}
	return r
}

// crashTable reports Tables 2/3: crash rates per config and state.
func crashTable(o Options, profile device.Profile, configs [][2]interface{}, id, title string) Report {
	r := Report{ID: id, Title: title}
	header := fmt.Sprintf("%-10s", "state")
	for _, c := range configs {
		header += fmt.Sprintf(" %7s", fmt.Sprintf("%d@%v", c[1], c[0]))
	}
	r.Lines = append(r.Lines, header)
	var cells []VideoRun
	for _, state := range pressureStates {
		for _, c := range configs {
			cells = append(cells, VideoRun{
				Profile:    profile,
				Video:      o.video(dash.Travel),
				Resolution: c[0].(dash.Resolution),
				FPS:        c[1].(int),
				Pressure:   state,
			})
		}
	}
	grid := RunGrid(o, cells)
	for si, state := range pressureStates {
		line := fmt.Sprintf("%-10s", state)
		unreached, total := 0, 0
		for ci := range configs {
			results := grid[si*len(configs)+ci]
			unreached += Unreached(results)
			total += len(results)
			line += fmt.Sprintf(" %6.0f%%", CrashRate(results))
		}
		if unreached > 0 {
			line += fmt.Sprintf("  [%d/%d runs never reached target regime]", unreached, total)
		}
		r.Lines = append(r.Lines, line)
	}
	return r
}

func init() {
	register("fig8", "video client PSS by resolution and frame rate (Nexus 5)", func(o Options) Report {
		o.applyDefaults()
		r := Report{ID: "fig8", Title: "Firefox PSS at no pressure (Nexus 5), MiB"}
		resolutions := []dash.Resolution{dash.R240p, dash.R360p, dash.R480p, dash.R720p, dash.R1080p}
		r.Addf("%-6s %12s %12s", "res", "30 FPS", "60 FPS")
		var cells []VideoRun
		for _, res := range resolutions {
			for _, fps := range []int{30, 60} {
				cells = append(cells, VideoRun{
					Profile:    device.Nexus5,
					Video:      o.video(dash.Travel),
					Resolution: res,
					FPS:        fps,
					Pressure:   proc.Normal,
				})
			}
		}
		oc := o
		oc.Runs = 1
		grid := RunGrid(oc, cells)
		var pss30 []float64
		for i, res := range resolutions {
			p30 := grid[2*i][0].Metrics.PeakPSS.MiBf()
			p60 := grid[2*i+1][0].Metrics.PeakPSS.MiBf()
			pss30 = append(pss30, p30)
			r.Addf("%-6s %10.0fMiB %10.0fMiB", res, p30, p60)
		}
		r.Addf("PSS growth 240p->1080p at 30FPS: +%.0f MiB (paper: ~+125 MiB)", pss30[len(pss30)-1]-pss30[0])
		return r
	})

	register("fig9", "frame drops on the Nokia 1 across qualities and states", func(o Options) Report {
		o.applyDefaults()
		res := []dash.Resolution{dash.R240p, dash.R360p, dash.R480p, dash.R720p, dash.R1080p}
		if o.Quick {
			res = []dash.Resolution{dash.R480p, dash.R720p, dash.R1080p}
		}
		return dropGrid(o, device.Nokia1, player.Firefox, res, "fig9",
			"Mean frame drops, Nokia 1 (1 GB), Firefox")
	})

	register("fig10", "differential MOS survey (99 participants)", func(o Options) Report {
		o.applyDefaults()
		r := Report{ID: "fig10", Title: "DMOS: Normal vs Moderate at 240p60 (Nokia 1)"}
		oc := o
		oc.Runs = 1
		grid := RunGrid(oc, []VideoRun{
			{Resolution: dash.R240p, FPS: 60, Pressure: proc.Normal, Video: o.video(dash.Travel)},
			{Resolution: dash.R240p, FPS: 60, Pressure: proc.Moderate, Video: o.video(dash.Travel)},
		})
		normal, moderate := grid[0][0], grid[1][0]
		refDrop := normal.Metrics.EffectiveDropRate
		testDrop := moderate.Metrics.EffectiveDropRate
		r.Addf("measured clip drops: reference %.1f%% (paper: 3%%), test %.1f%% (paper: 35%%)", refDrop, testDrop)
		rng := rand.New(rand.NewSource(o.Seed + 99))
		r.Addf("")
		r.Addf("survey at the paper's operating points (3%% vs 35%%):")
		hist := qoe.Survey(99, 3, 35, rng)
		for s := 1; s <= 5; s++ {
			r.Addf("  DMOS %d: %2d participants", s, hist[s])
		}
		r.Addf("  rating 1-2: %d (paper: 60)   mean DMOS: %.2f", hist[1]+hist[2], qoe.MeanScore(hist))
		r.Addf("")
		r.Addf("survey at our measured operating points (%.0f%% vs %.0f%%):", refDrop, testDrop)
		hist2 := qoe.Survey(99, refDrop, testDrop, rng)
		for s := 1; s <= 5; s++ {
			r.Addf("  DMOS %d: %2d participants", s, hist2[s])
		}
		r.Addf("  rating 1-2: %d   mean DMOS: %.2f", hist2[1]+hist2[2], qoe.MeanScore(hist2))
		return r
	})

	register("fig11", "frame drops on the Nexus 5 across qualities and states", func(o Options) Report {
		o.applyDefaults()
		res := []dash.Resolution{dash.R240p, dash.R360p, dash.R480p, dash.R720p, dash.R1080p, dash.R1440p}
		if o.Quick {
			res = []dash.Resolution{dash.R480p, dash.R1080p}
		}
		return dropGrid(o, device.Nexus5, player.Firefox, res, "fig11",
			"Mean frame drops, Nexus 5 (2 GB), Firefox")
	})

	register("fig12", "frame drops across video genres (Nexus 5)", func(o Options) Report {
		o.applyDefaults()
		r := Report{ID: "fig12", Title: "Drops per genre, Nexus 5"}
		res := []dash.Resolution{dash.R480p, dash.R720p, dash.R1080p}
		if o.Quick {
			res = []dash.Resolution{dash.R1080p}
		}
		r.Addf("%-8s %-6s %-4s %-9s %18s", "genre", "res", "fps", "state", "drops (mean±ci)")
		type rowKey struct {
			genre dash.Genre
			res   dash.Resolution
			fps   int
			state proc.Level
		}
		var rows []rowKey
		var cells []VideoRun
		for _, g := range dash.Genres {
			for _, rs := range res {
				for _, fps := range []int{30, 60} {
					for _, state := range []proc.Level{proc.Normal, proc.Moderate} {
						rows = append(rows, rowKey{g, rs, fps, state})
						cells = append(cells, VideoRun{
							Profile:    device.Nexus5,
							Video:      o.video(g),
							Resolution: rs,
							FPS:        fps,
							Pressure:   state,
						})
					}
				}
			}
		}
		grid := RunGrid(o, cells)
		for i, k := range rows {
			r.Addf("%-8s %-6s %-4d %-9s %14s%%%s", k.genre, k.res, k.fps, k.state, DropStats(grid[i]), regimeNote(grid[i]))
		}
		return r
	})

	register("fig16", "frame-rate sweep per resolution under Moderate pressure (Nokia 1)", func(o Options) Report {
		o.applyDefaults()
		r := Report{ID: "fig16", Title: "Rendered FPS when varying encoded frame rate (Nokia 1, Moderate)"}
		r.Addf("%-6s %-4s %16s %16s", "res", "fps", "drops", "rendered FPS")
		type rowKey struct {
			res dash.Resolution
			fps int
		}
		var rows []rowKey
		var cells []VideoRun
		for _, res := range []dash.Resolution{dash.R480p, dash.R720p, dash.R1080p} {
			for _, fps := range []int{24, 48, 60} {
				rows = append(rows, rowKey{res, fps})
				cells = append(cells, VideoRun{
					Profile:    device.Nokia1,
					Video:      o.video(dash.Travel),
					Resolution: res,
					FPS:        fps,
					Pressure:   proc.Moderate,
				})
			}
		}
		grid := RunGrid(o, cells)
		for i, k := range rows {
			drops := DropStats(grid[i])
			rendered := float64(k.fps) * (1 - drops.Mean/100)
			r.Addf("%-6s %-4d %14s%% %13.1f fps%s", k.res, k.fps, drops, rendered, regimeNote(grid[i]))
		}
		r.Addf("(paper: at 1080p, 60 FPS renders ~0 while 24 FPS recovers to ~full rate)")
		return r
	})

	register("fig17", "mid-session frame-rate switching under Moderate pressure", func(o Options) Report {
		o.applyDefaults()
		r := Report{ID: "fig17", Title: "Rendered FPS while switching 60 -> 24 -> 48 FPS (Nokia 1, 480p, organic pressure)"}
		video := o.video(dash.Travel)
		if !o.Quick {
			video.Duration = 2 * time.Minute
		}
		third := video.Duration / 3
		result := Run(VideoRun{
			Seed:        o.Seed + 1,
			Profile:     device.Nokia1,
			Video:       video,
			Resolution:  dash.R480p,
			FPS:         60,
			OrganicApps: 8,
			OnSession: func(s *player.Session, d *device.Device) {
				m := s.Manifest()
				d.Clock.Schedule(third, func() {
					if rung, ok := m.Rung(dash.R480p, 24); ok {
						s.SwitchRung(rung)
					}
				})
				d.Clock.Schedule(2*third, func() {
					if rung, ok := m.Rung(dash.R480p, 48); ok {
						s.SwitchRung(rung)
					}
				})
			},
		})
		r.Addf("segment 1 (60 FPS), 2 (24 FPS), 3 (48 FPS); switches at %v and %v", third, 2*third)
		r.Addf("fps %s", plot.SparkFixed(result.Metrics.FPSTimeline, 60))
		for i, f := range result.Metrics.FPSTimeline {
			r.Addf("t=%3ds rendered %4.0f fps", i, f)
		}
		for _, sw := range result.Metrics.Switches {
			r.Addf("switched %s -> %s at %v", sw.From, sw.To, sw.At.Round(time.Second))
		}
		return r
	})

	register("fig18", "ExoPlayer drops and crash rate (Nexus 5)", func(o Options) Report {
		o.applyDefaults()
		res := []dash.Resolution{dash.R480p, dash.R720p, dash.R1080p}
		return dropGrid(o, device.Nexus5, player.ExoPlayer, res, "fig18",
			"Mean frame drops, Nexus 5, ExoPlayer (native app)")
	})

	register("fig19", "Chrome drops and crash rate (Nexus 5)", func(o Options) Report {
		o.applyDefaults()
		res := []dash.Resolution{dash.R480p, dash.R720p, dash.R1080p}
		return dropGrid(o, device.Nexus5, player.Chrome, res, "fig19",
			"Mean frame drops, Nexus 5, Chrome")
	})

	register("tab2", "video client crash rates on the Nokia 1", func(o Options) Report {
		o.applyDefaults()
		return crashTable(o, device.Nokia1, [][2]interface{}{
			{dash.R480p, 30}, {dash.R720p, 30}, {dash.R480p, 60}, {dash.R720p, 60},
		}, "tab2", "Crash rate per state, Nokia 1 (paper Moderate: 40/100/40/100, Critical: all 100)")
	})

	register("tab3", "video client crash rates on the Nexus 5", func(o Options) Report {
		o.applyDefaults()
		return crashTable(o, device.Nexus5, [][2]interface{}{
			{dash.R720p, 30}, {dash.R1080p, 30}, {dash.R480p, 60}, {dash.R720p, 60},
		}, "tab3", "Crash rate per state, Nexus 5 (paper Moderate: 10/100/0/100, Critical: 100/100/70/100)")
	})
}
