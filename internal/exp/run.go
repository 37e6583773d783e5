// Package exp orchestrates the paper's experiments: it boots a device,
// establishes a memory-pressure regime (synthetic via the MP-Simulator
// balloon, or organic via background apps, §4.1/§4.3), streams a video,
// and collects QoE metrics — repeating runs and aggregating them the
// way the paper reports (mean of five runs with 95% CIs).
package exp

import (
	"time"

	"coalqoe/internal/dash"
	"coalqoe/internal/device"
	"coalqoe/internal/faults"
	"coalqoe/internal/mempress"
	"coalqoe/internal/netem"
	"coalqoe/internal/player"
	"coalqoe/internal/proc"
	"coalqoe/internal/stats"
	"coalqoe/internal/telemetry"
)

// VideoRun configures one streaming experiment.
type VideoRun struct {
	// Seed makes the run deterministic; vary it across repeats.
	Seed int64
	// Profile selects the device (default Nokia1).
	Profile device.Profile
	// DeviceOpts tweak the device assembly (ablations).
	DeviceOpts device.Options
	// Client selects the video client (default Firefox).
	Client player.ClientProfile
	// Video selects content (default the travel video, the paper's
	// primary subject).
	Video dash.Video
	// Resolution and FPS select the rung.
	Resolution dash.Resolution
	FPS        int
	// Pressure is the target memory state before playback starts.
	Pressure proc.Level
	// Organic applies pressure by opening background apps instead of
	// the balloon (§4.3 "organic memory pressure").
	OrganicApps int
	// FPSOptions widens the manifest ladder (default 30/60 plus the
	// requested FPS).
	FPSOptions []int
	// PlayerTweaks lets callers adjust the session config.
	PlayerTweaks func(*player.Config)
	// OnSession runs right after the session starts (attach ABR, etc.).
	OnSession func(*player.Session, *device.Device)
	// KeepTrace records full scheduler intervals for export
	// (memory-heavy; off by default). Implies KeepDevice.
	KeepTrace bool
	// KeepDevice retains the simulated device and session in the Result
	// for trace-level queries after the run. Off by default: a full
	// device (process table, tracer aggregates, scheduler state) is far
	// heavier than its Metrics, and large grids would otherwise hold
	// every simulated device of every repeat alive simultaneously.
	KeepDevice bool
	// Faults, when non-nil, materializes the plan into impairment
	// windows (seeded by the run's Seed, so repeats differ but replays
	// don't) and injects them over the playback horizon. nil keeps the
	// paper's ideal network/storage conditions.
	Faults *faults.Spec
	// Deadline, when positive, caps the run's simulated time: a session
	// still active at the deadline is abandoned and the Result is marked
	// Failed ("deadline exceeded") rather than wedging the whole grid.
	// Zero keeps the legacy slack (3x video duration + 30s) with no
	// failure marking.
	Deadline time.Duration
	// Digest enables the kernel's event-order digest: an FNV-1a hash
	// over every dispatched event's (time, seq, kind), returned in
	// Result.EventDigest. It is the correctness oracle for kernel
	// optimisations — any change to the dispatch sequence changes the
	// digest — and costs one branch per dispatched event, so it is off
	// by default.
	Digest bool
}

func (r *VideoRun) applyDefaults() {
	if r.Profile.Name == "" {
		r.Profile = device.Nokia1
	}
	if r.Client.Name == "" {
		r.Client = player.Firefox
	}
	if r.Video.Title == "" {
		r.Video = dash.TestVideos[0]
	}
	if r.FPS == 0 {
		r.FPS = 30
	}
	if len(r.FPSOptions) == 0 {
		r.FPSOptions = []int{24, 30, 48, 60}
	}
}

const (
	// settleTime is the boot settling period before pressure builds.
	settleTime = 3 * time.Second
	// pressureTimeout bounds the wait for the target signal; runs that
	// never reach it are counted by Unreached.
	pressureTimeout = 240 * time.Second
)

// Result is the outcome of one run. Metrics is extracted eagerly when
// the run finishes; Device and Session are nil unless the run was
// configured with KeepDevice or KeepTrace, so grids of thousands of
// runs don't retain every simulated device.
type Result struct {
	Metrics player.Metrics
	//coalvet:allow resultretain opt-in escape hatch: nil unless KeepDevice/KeepTrace is set on the run config
	Device *device.Device
	//coalvet:allow resultretain opt-in escape hatch: nil unless KeepDevice/KeepTrace is set on the run config
	Session *player.Session
	// PressureReached reports whether the target regime was achieved
	// before the timeout.
	PressureReached bool
	// Telemetry holds the sampled series when the run's DeviceOpts
	// enabled telemetry; nil otherwise. It is plain data (no
	// device or session references), so retaining it across a grid is
	// cheap.
	Telemetry *telemetry.Dump
	// Failed marks a run that produced no trustworthy metrics: it
	// panicked inside the executor (FailReason carries the panic value)
	// or overran its Deadline. Aggregations (DropStats, CrashRate)
	// exclude failed runs; report rows annotate them (see failNote).
	Failed     bool
	FailReason string
	// FaultWindows records the injected impairment schedule (absolute
	// sim times) when the run carried a fault plan. Plain data — safe to
	// retain and export (trace marks, reports).
	FaultWindows []faults.Window
	// EventDigest is the kernel's event-order digest when the run was
	// configured with Digest; 0 otherwise. Two runs of the same config
	// and seed must produce the same digest at any executor parallelism.
	EventDigest uint64
	// TickFreeDigest is the same oracle over every event except the
	// scheduler's ticks (simclock.TickFreeDigest); 0 without Digest.
	TickFreeDigest uint64
}

// Run executes the experiment to completion (or crash) and returns the
// session metrics — plus, when cfg.KeepDevice/KeepTrace is set, the
// device for trace-level queries.
func Run(cfg VideoRun) Result {
	cfg.applyDefaults()
	dev := device.New(cfg.Seed, cfg.Profile, cfg.DeviceOpts)
	if cfg.Digest {
		// Enabled before the first Settle, so the digest covers every
		// dispatched event of the run, boot included.
		dev.Clock.EnableDigest()
	}
	dev.Tracer.KeepIntervals(cfg.KeepTrace)
	dev.Settle(settleTime)

	reached := cfg.Pressure == proc.Normal && cfg.OrganicApps == 0
	if cfg.OrganicApps > 0 {
		mempress.OpenBackgroundApps(dev, mempress.TypicalApps(cfg.OrganicApps), 500*time.Millisecond)
		// Let the launches and resulting reclaim churn play out.
		dev.Settle(time.Duration(cfg.OrganicApps)*500*time.Millisecond + 10*time.Second)
		reached = true
	} else if cfg.Pressure > proc.Normal {
		mempress.Apply(dev, cfg.Pressure, func() { reached = true })
		deadline := dev.Clock.Now() + pressureTimeout
		for !reached && dev.Clock.Now() < deadline {
			dev.Settle(time.Second)
		}
	}

	manifest := dash.NewManifest(cfg.Video, cfg.FPSOptions...)
	rung, ok := manifest.Rung(cfg.Resolution, cfg.FPS)
	if !ok {
		rung = manifest.Lowest()
	}
	pcfg := player.Config{
		Device:   dev,
		Client:   cfg.Client,
		Manifest: manifest,
		Rung:     rung,
	}
	if cfg.PlayerTweaks != nil {
		cfg.PlayerTweaks(&pcfg)
	}
	// Play to the end (or crash), with slack for stalls. An explicit
	// Deadline overrides the legacy slack and marks overruns as failed.
	slack := cfg.Video.Duration*3 + 30*time.Second
	if cfg.Deadline > 0 {
		slack = cfg.Deadline
	}
	var inj *faults.Injector
	if cfg.Faults != nil {
		// The injector needs a concrete link handle; materialize the
		// default LAN here when the tweaks didn't supply one. Windows
		// derive from the run seed over the full playable horizon, before
		// the session starts, so the schedule is independent of playback.
		if pcfg.Link == nil {
			pcfg.Link = netem.LAN(dev.Clock)
		}
		inj = faults.Attach(dev, pcfg.Link, cfg.Faults.Windows(cfg.Seed, slack))
	}
	sess := player.Start(pcfg)
	if inj != nil {
		sess.SetFaultProbe(inj.FaultActive)
	}
	if cfg.OnSession != nil {
		cfg.OnSession(sess, dev)
	}
	deadline := dev.Clock.Now() + slack
	for sess.Active() && dev.Clock.Now() < deadline {
		dev.Settle(time.Second)
	}
	dev.Tracer.Finish(dev.Clock.Now())
	res := Result{
		Metrics: sess.Metrics(), PressureReached: reached,
		EventDigest: dev.Clock.Digest(), TickFreeDigest: dev.Clock.TickFreeDigest(),
	}
	if inj != nil {
		res.FaultWindows = inj.Windows()
	}
	if cfg.Deadline > 0 && sess.Active() {
		res.Failed = true
		res.FailReason = "deadline exceeded"
	}
	if dev.Sampler != nil {
		// One edge sample at the final instant, so the last partial
		// period is represented, then freeze the series.
		dev.Sampler.Sample()
		dev.Sampler.Stop()
		res.Telemetry = dev.Sampler.Dump()
	}
	if cfg.KeepDevice || cfg.KeepTrace {
		res.Device = dev
		res.Session = sess
	}
	return res
}

// Repeat runs the experiment n times with seeds base+1..base+n and
// returns all results. This mirrors the paper's five-run methodology.
func Repeat(cfg VideoRun, n int, baseSeed int64) []Result {
	out := make([]Result, 0, n)
	for i := 0; i < n; i++ {
		c := cfg
		//coalvet:allow seedlane the paper's five-run rule seeds base+1..base+n; changing it would invalidate the digest goldens
		c.Seed = baseSeed + int64(i) + 1
		out = append(out, Run(c))
	}
	return out
}

// DropStats aggregates the effective drop rates of repeated runs (a
// crashed run counts its unplayed remainder as dropped, as the paper
// does for unplayable Critical-state runs). Failed runs (panic or
// deadline, see Result.Failed) carry no trustworthy metrics and are
// excluded; failNote makes the exclusion visible on report rows.
func DropStats(results []Result) stats.MeanCI {
	xs := make([]float64, 0, len(results))
	for _, r := range results {
		if r.Failed {
			continue
		}
		xs = append(xs, r.Metrics.EffectiveDropRate)
	}
	return stats.Summarize(xs)
}

// CrashRate returns the percentage of runs that crashed, over the runs
// that completed (failed runs excluded).
func CrashRate(results []Result) float64 {
	n, total := 0, 0
	for _, r := range results {
		if r.Failed {
			continue
		}
		total++
		if r.Metrics.Crashed {
			n++
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

// Restarts sums crash recoveries across completed runs, and
// MeanTimeToRecover averages the recovery gap over runs that actually
// restarted — the headline numbers of the faults_recovery experiment.
func Restarts(results []Result) int {
	n := 0
	for _, r := range results {
		if !r.Failed {
			n += r.Metrics.Restarts
		}
	}
	return n
}

// MeanTimeToRecover averages Metrics.TimeToRecover over runs with at
// least one restart; zero when none restarted.
func MeanTimeToRecover(results []Result) time.Duration {
	var sum time.Duration
	n := 0
	for _, r := range results {
		if r.Failed || r.Metrics.Restarts == 0 {
			continue
		}
		sum += r.Metrics.TimeToRecover
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}
