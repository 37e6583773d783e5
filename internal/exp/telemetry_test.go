package exp

import (
	"bytes"
	"reflect"
	"testing"

	"coalqoe/internal/dash"
	"coalqoe/internal/device"
	"coalqoe/internal/proc"
	"coalqoe/internal/telemetry"
)

func telemetryRun(seed int64) VideoRun {
	return VideoRun{
		Seed:       seed,
		Profile:    device.Nokia1,
		Video:      quickVideo(),
		Resolution: dash.R360p,
		FPS:        30,
		Pressure:   proc.Normal,
		DeviceOpts: device.Options{Telemetry: true},
	}
}

func TestRunCollectsTelemetry(t *testing.T) {
	res := Run(telemetryRun(1))
	dump := res.Telemetry
	if dump == nil {
		t.Fatal("telemetry enabled but no dump returned")
	}
	if dump.Period != telemetry.Period {
		t.Errorf("dump period = %v, want %v", dump.Period, telemetry.Period)
	}
	if res.Device != nil || res.Session != nil {
		t.Error("telemetry must not force device retention")
	}
	// One series per instrumented subsystem, as a wiring check.
	for _, name := range []string{
		"mem.free_pages", "mem.pgscan_pages", "mem.pressure",
		"kswapd.pages_reclaimed", "lmkd.polls",
		"blockio.queue_depth_us", "blockio.peak_backlog_us",
		"sched.runnable", "player.buffer_ms", "player.frames_rendered",
	} {
		s := dump.Find(name)
		if s == nil {
			t.Errorf("series %q missing from dump", name)
			continue
		}
		if len(s.Times) == 0 {
			t.Errorf("series %q has no samples", name)
		}
	}
	// The run lasts well past one 3s period plus the edge sample.
	if s := dump.Find("mem.free_pages"); s != nil && len(s.Times) < 3 {
		t.Errorf("mem.free_pages has only %d samples", len(s.Times))
	}
	// Periodic samples land on the SignalCapturer grid; only the final
	// edge sample (taken at run end) may fall between ticks.
	for _, s := range dump.Series {
		for _, at := range s.Times[:len(s.Times)-1] {
			if at%telemetry.Period != 0 {
				t.Fatalf("series %q sampled at %v, off the %v grid", s.Name, at, telemetry.Period)
			}
		}
	}
	// Series must be sorted by name for deterministic emission.
	for i := 1; i < len(dump.Series); i++ {
		if dump.Series[i].Name < dump.Series[i-1].Name {
			t.Fatalf("series out of order: %q after %q",
				dump.Series[i].Name, dump.Series[i-1].Name)
		}
	}
	if dump.Find("blockio.request_latency") != nil {
		t.Error("histogram leaked into the series list")
	}
	found := false
	for _, h := range dump.Histograms {
		if h.Name == "blockio.request_latency" {
			found = true
			if h.Count == 0 {
				t.Error("no block requests observed over a whole playback")
			}
		}
	}
	if !found {
		t.Error("blockio.request_latency histogram missing")
	}
}

// Telemetry sampling must be a pure observer: the same seed must
// produce identical playback metrics with the sampler on or off.
func TestTelemetryDoesNotPerturbRun(t *testing.T) {
	on := telemetryRun(7)
	off := on
	off.DeviceOpts.Telemetry = false
	won, woff := Run(on), Run(off)
	if !reflect.DeepEqual(won.Metrics, woff.Metrics) {
		t.Fatalf("metrics differ with telemetry on:\non:  %+v\noff: %+v",
			won.Metrics, woff.Metrics)
	}
}

// The executor contract extends to telemetry: dumps must be
// byte-identical between serial and 8-worker execution, delivered at
// the same batch indices. Run under -race this also holds the
// OnTelemetry serialization to account.
func TestTelemetryByteIdenticalAcrossWorkers(t *testing.T) {
	render := func(parallel int) map[int]string {
		out := make(map[int]string)
		o := Options{
			Seed:      100,
			Runs:      4,
			Parallel:  parallel,
			Telemetry: true,
			OnTelemetry: func(run int, dump *telemetry.Dump) {
				var buf bytes.Buffer
				if err := dump.WriteCSV(&buf); err != nil {
					t.Error(err)
				}
				out[run] = buf.String()
			},
		}
		RunGrid(o, []VideoRun{telemetryRun(0)})
		return out
	}
	serial := render(1)
	wide := render(8)
	if len(serial) != 4 || len(wide) != 4 {
		t.Fatalf("dump counts: serial %d, parallel %d, want 4", len(serial), len(wide))
	}
	for i := 0; i < 4; i++ {
		if serial[i] != wide[i] {
			t.Fatalf("run %d: telemetry CSV differs between serial and 8 workers", i)
		}
	}
}
