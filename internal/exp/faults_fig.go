package exp

import (
	"time"

	"coalqoe/internal/dash"
	"coalqoe/internal/device"
	"coalqoe/internal/faults"
	"coalqoe/internal/player"
	"coalqoe/internal/proc"
)

// faults_recovery: the robustness counterpart to the paper's §4.3 crash
// finding. The paper treats an lmkd kill as the end of the session
// (Tables 2–3 report Critical-state runs as unplayable); a production
// client restarts and resumes instead. This experiment injects a
// memory-spike storm (transient co-resident demand, not a sustained
// regime) on top of Moderate pressure and compares the two postures:
//
//   - terminal: the seed behavior — the first kill ends playback, and
//     the unplayed remainder counts as dropped (~100% effective drop
//     when the kill lands early);
//   - recover: player.Config.Recover relaunches the app after the
//     cold-start cost, re-fetches the manifest, and resumes from the
//     next segment boundary — the run reports Restarts and
//     TimeToRecover instead of a terminal crash.
//
// Both variants of one profile share every CellSeed condition (the
// tweaks are deliberately not hashed), so each pair faces identical
// pressure and identical fault schedules: the comparison isolates the
// recovery machinery.
func init() {
	register("faults_recovery", "crash recovery under memory-spike storms (terminal vs recovering client)", func(o Options) Report {
		o.applyDefaults()
		r := Report{ID: "faults_recovery", Title: "Terminal-crash vs crash-recovery playback under a memstorm fault plan (Moderate pressure, 720p30)"}
		plan := faults.MemStorm()
		profiles := []device.Profile{device.Nokia1, device.Nexus5, device.Nexus6P}
		modes := []struct {
			name    string
			recover bool
		}{
			{"terminal", false},
			{"recover", true},
		}
		var cells []VideoRun
		for _, p := range profiles {
			for _, m := range modes {
				rec := m.recover
				cells = append(cells, VideoRun{
					Profile:    p,
					Video:      o.video(dash.Travel),
					Resolution: dash.R720p, FPS: 30,
					Pressure: proc.Moderate,
					Faults:   &plan,
					PlayerTweaks: func(pc *player.Config) {
						pc.SegmentTimeout = 8 * time.Second
						pc.Recover = rec
					},
				})
			}
		}
		grid := RunGrid(o, cells)
		r.Addf("%-8s %-9s %12s %8s %9s %10s", "device", "client", "drops", "crashes", "restarts", "mean TTR")
		for i, p := range profiles {
			for j, m := range modes {
				res := grid[i*len(modes)+j]
				r.Addf("%-8s %-9s %11s%% %6.0f%% %9d %10s%s",
					p.Name, m.name, DropStats(res), CrashRate(res),
					Restarts(res), MeanTimeToRecover(res).Round(100*time.Millisecond),
					regimeNote(res))
			}
		}
		r.Addf("(a spike storm kills the foreground client; recovery converts a dead session")
		r.Addf(" into restarts + a bounded playback gap, while the terminal baseline loses")
		r.Addf(" the whole remainder of the video)")
		return r
	})
}
