// Command videobench runs a single controlled video-streaming
// experiment — device, client, rung, memory-pressure state — and prints
// the QoE outcome, like one cell of the paper's Figures 9/11/12.
//
// Example:
//
//	videobench -device nokia1 -res 1080p -fps 30 -pressure moderate -runs 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"coalqoe/internal/atomicio"
	"coalqoe/internal/dash"
	"coalqoe/internal/device"
	"coalqoe/internal/exp"
	"coalqoe/internal/faults"
	"coalqoe/internal/player"
	"coalqoe/internal/proc"
	"coalqoe/internal/trace"
)

func main() {
	var (
		deviceName = flag.String("device", "nokia1", "device: nokia1, nexus5, nexus6p")
		clientName = flag.String("client", "firefox", "client: firefox, chrome, exoplayer")
		resName    = flag.String("res", "480p", "resolution: 240p..1440p")
		fps        = flag.Int("fps", 30, "frame rate: 24, 30, 48, 60")
		pressure   = flag.String("pressure", "normal", "memory state: normal, moderate, low, critical")
		organic    = flag.Int("organic", 0, "apply organic pressure with N background apps instead")
		videoIdx   = flag.Int("video", 0, "test video index 0..4 (travel, sports, gaming, news, nature)")
		runs       = flag.Int("runs", 1, "number of repeated runs")
		seed       = flag.Int64("seed", 0, "base seed")
		timeline   = flag.Bool("timeline", false, "print the per-second rendered FPS timeline")
		debug      = flag.Bool("debug", false, "print a per-second device state trace")
		traceOut   = flag.String("trace", "", "write a Perfetto-style text trace of run 1 to this file")
		jsonOut    = flag.String("json", "", "write per-run metrics as JSON lines to this file")
		telemetry  = flag.String("telemetry", "", "sample device metrics every 3s and write per-run series (CSV+JSON) plus a chrome://tracing file for run 1 to this directory")
		faultPlan  = flag.String("faults", "", "inject a fault plan: netflaky, iostorm, memstorm, mixed")
		recover    = flag.Bool("recover", false, "enable crash recovery (restart + resume after an lmkd kill) and an 8s segment timeout with retries")
	)
	flag.Parse()

	profile, err := DeviceByName(*deviceName)
	if err != nil {
		fatal(err)
	}
	client, err := ClientByName(*clientName)
	if err != nil {
		fatal(err)
	}
	res, err := dash.ParseResolution(*resName)
	if err != nil {
		fatal(err)
	}
	level, err := LevelByName(*pressure)
	if err != nil {
		fatal(err)
	}
	if *videoIdx < 0 || *videoIdx >= len(dash.TestVideos) {
		fatal(fmt.Errorf("video index out of range"))
	}

	cfg := exp.VideoRun{
		Profile:     profile,
		Client:      client,
		Video:       dash.TestVideos[*videoIdx],
		Resolution:  res,
		FPS:         *fps,
		Pressure:    level,
		OrganicApps: *organic,
	}
	if *faultPlan != "" {
		plan, err := faults.Lookup(*faultPlan)
		if err != nil {
			fatal(err)
		}
		cfg.Faults = &plan
	}
	if *recover {
		cfg.PlayerTweaks = func(pc *player.Config) {
			pc.SegmentTimeout = 8 * time.Second
			pc.Recover = true
		}
	}
	if *debug {
		debugRun(cfg, true)
		return
	}
	// Telemetry implies KeepTrace for run 1 so the chrome trace can
	// merge thread intervals with the counter tracks.
	cfg.KeepTrace = *traceOut != "" || *telemetry != ""
	cfg.DeviceOpts.Telemetry = *telemetry != ""
	results := exp.Repeat(cfg, *runs, *seed)
	if *telemetry != "" {
		if err := writeTelemetry(*telemetry, results); err != nil {
			fatal(err)
		}
	}
	if *traceOut != "" && len(results) > 0 {
		f, err := atomicio.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := results[0].Device.Tracer.WriteText(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Commit(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote trace to %s\n", *traceOut)
	}
	if *jsonOut != "" {
		f, err := atomicio.Create(*jsonOut)
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(f)
		for _, r := range results {
			if err := enc.Encode(r.Metrics); err != nil {
				f.Close()
				fatal(err)
			}
		}
		if err := f.Commit(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d metric records to %s\n", len(results), *jsonOut)
	}
	for i, r := range results {
		fmt.Printf("run %d: %s reached=%v signals=%v\n", i+1, r.Metrics, r.PressureReached, r.Metrics.Signals)
		if *timeline {
			fmt.Print("  fps:")
			for _, f := range r.Metrics.FPSTimeline {
				fmt.Printf(" %.0f", f)
			}
			fmt.Println()
		}
	}
	if *runs > 1 {
		fmt.Printf("mean drop rate: %v%%   crash rate: %.0f%%\n",
			exp.DropStats(results), exp.CrashRate(results))
	}
}

// writeTelemetry dumps each run's sampled series as CSV and JSON, plus
// a chrome://tracing-loadable trace for run 1 that merges the thread
// intervals with the counter tracks.
func writeTelemetry(dir string, results []exp.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(path string, emit func(io.Writer) error) error {
		f, err := atomicio.Create(path)
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			f.Close()
			return err
		}
		return f.Commit()
	}
	for i, r := range results {
		if r.Telemetry == nil {
			continue
		}
		base := filepath.Join(dir, fmt.Sprintf("run%03d", i+1))
		if err := write(base+".csv", r.Telemetry.WriteCSV); err != nil {
			return err
		}
		if err := write(base+".json", r.Telemetry.WriteJSON); err != nil {
			return err
		}
	}
	if len(results) > 0 && results[0].Device != nil && results[0].Telemetry != nil {
		// Injected fault windows render as marks on the trace timeline:
		// intervals for the impairment windows, so the Perfetto view
		// shows the outage/spike that explains a stall right above it.
		var marks []trace.Mark
		for _, w := range results[0].FaultWindows {
			marks = append(marks, trace.Mark{
				Name:  "fault:" + w.Kind.String(),
				Start: w.Start,
				End:   w.End(),
			})
		}
		path := filepath.Join(dir, "run001.trace.json")
		err := write(path, func(f io.Writer) error {
			return results[0].Device.Tracer.WriteChromeTrace(f, results[0].Telemetry, marks...)
		})
		if err != nil {
			return err
		}
	}
	fmt.Printf("wrote telemetry for %d runs to %s\n", len(results), dir)
	return nil
}

// DeviceByName resolves a device profile by CLI name.
func DeviceByName(s string) (device.Profile, error) {
	switch strings.ToLower(s) {
	case "nokia1", "nokia":
		return device.Nokia1, nil
	case "nexus5":
		return device.Nexus5, nil
	case "nexus6p":
		return device.Nexus6P, nil
	default:
		return device.Profile{}, fmt.Errorf("unknown device %q", s)
	}
}

// ClientByName resolves a client profile by CLI name.
func ClientByName(s string) (player.ClientProfile, error) {
	switch strings.ToLower(s) {
	case "firefox":
		return player.Firefox, nil
	case "chrome":
		return player.Chrome, nil
	case "exoplayer", "exo":
		return player.ExoPlayer, nil
	default:
		return player.ClientProfile{}, fmt.Errorf("unknown client %q", s)
	}
}

// LevelByName resolves a pressure level by CLI name.
func LevelByName(s string) (proc.Level, error) {
	switch strings.ToLower(s) {
	case "normal":
		return proc.Normal, nil
	case "moderate":
		return proc.Moderate, nil
	case "low":
		return proc.Low, nil
	case "critical":
		return proc.Critical, nil
	default:
		return 0, fmt.Errorf("unknown pressure level %q", s)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "videobench:", err)
	os.Exit(1)
}
