// Command mpsim drives the memory-pressure simulator (the MP Simulator
// analog, §4.1) against a simulated device and reports how the kernel
// responds: balloon growth, kills, and signal escalation.
//
//	mpsim -device nokia1 -target critical -hold 60s
//	mpsim -target critical -json pressure.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"coalqoe/internal/atomicio"
	"coalqoe/internal/device"
	"coalqoe/internal/mempress"
	"coalqoe/internal/proc"
)

// The JSON export records the whole pressure episode the way
// signalcapturer exports fleet records: sampled series (balloon size,
// free/available memory, pressure P, ...), the kill log, and the
// signal-escalation timeline.
type jsonReport struct {
	Device       string      `json:"device"`
	Target       string      `json:"target"`
	ReachedAtSec float64     `json:"reached_at_sec"`
	PeriodSec    float64     `json:"period_sec"`
	Series       []seriesRow `json:"series"`
	Kills        []killRow   `json:"kills"`
	Escalation   []signalRow `json:"escalation"`
}

type seriesRow struct {
	Name    string       `json:"name"`
	Samples [][2]float64 `json:"samples"` // [seconds, value]
}

type killRow struct {
	AtSec   float64 `json:"at_sec"`
	Process string  `json:"process"`
	Adj     int     `json:"adj"`
	Reason  string  `json:"reason"`
}

type signalRow struct {
	AtSec          float64 `json:"at_sec"`
	Level          string  `json:"level"`
	AvailablePages int64   `json:"available_pages"`
}

func main() {
	deviceName := flag.String("device", "nokia1", "device: nokia1, nexus5, nexus6p")
	target := flag.String("target", "moderate", "target level: moderate, low, critical")
	hold := flag.Duration("hold", 60*time.Second, "how long to hold the regime after reaching it")
	seed := flag.Int64("seed", 1, "seed")
	jsonPath := flag.String("json", "", "write balloon series, kills and escalation timeline to this file")
	flag.Parse()

	var profile device.Profile
	switch strings.ToLower(*deviceName) {
	case "nokia1":
		profile = device.Nokia1
	case "nexus5":
		profile = device.Nexus5
	case "nexus6p":
		profile = device.Nexus6P
	default:
		fatal(fmt.Errorf("unknown device %q", *deviceName))
	}
	var level proc.Level
	switch strings.ToLower(*target) {
	case "moderate":
		level = proc.Moderate
	case "low":
		level = proc.Low
	case "critical":
		level = proc.Critical
	default:
		fatal(fmt.Errorf("unknown target %q", *target))
	}

	dev := device.New(*seed, profile, device.Options{Telemetry: *jsonPath != ""})
	dev.Settle(3 * time.Second)
	fmt.Printf("%s booted: free=%s available=%s cached=%d\n",
		dev, dev.Mem.Free().Bytes(), dev.Mem.Available().Bytes(), dev.Table.CachedCount())

	var reachedAt time.Duration
	app := mempress.Apply(dev, level, func() { reachedAt = dev.Clock.Now() })
	if dev.Telem != nil {
		dev.Telem.SampleFunc("mpsim.balloon_bytes", func() float64 {
			return float64(app.BalloonBytes())
		})
	}

	dev.Clock.Every(time.Second, func() {
		fmt.Printf("t=%3ds level=%-8s balloon=%8s free=%8s avail=%8s zram=%8s P=%5.1f kills=%d\n",
			int(dev.Clock.Now()/time.Second), dev.Table.Level(), app.BalloonBytes(),
			dev.Mem.Free().Bytes(), dev.Mem.Available().Bytes(),
			dev.Mem.ZRAMPhysical().Bytes(), dev.Mem.Pressure(), dev.Lmkd.KillCount)
	})

	deadline := dev.Clock.Now() + 5*time.Minute
	for !app.Reached() && dev.Clock.Now() < deadline {
		dev.Settle(time.Second)
	}
	if !app.Reached() {
		fatal(fmt.Errorf("never reached %v within 5 minutes", level))
	}
	fmt.Printf("reached %v at t=%v; holding for %v\n", level, reachedAt.Round(time.Second), *hold)
	dev.Settle(*hold)
	app.Stop()
	dev.Settle(5 * time.Second)
	fmt.Printf("released: level=%v free=%s kills=%d signals=%d\n",
		dev.Table.Level(), dev.Mem.Free().Bytes(), dev.Lmkd.KillCount, len(dev.Table.Signals()))

	if *jsonPath != "" {
		dev.Sampler.Sample() // edge sample at the final instant
		dump := dev.Sampler.Dump()
		rep := jsonReport{
			Device:       profile.Name,
			Target:       level.String(),
			ReachedAtSec: reachedAt.Seconds(),
			PeriodSec:    dump.Period.Seconds(),
			Kills:        []killRow{},
			Escalation:   []signalRow{},
		}
		for _, s := range dump.Series {
			row := seriesRow{Name: s.Name, Samples: make([][2]float64, len(s.Times))}
			for i, ts := range s.Times {
				row.Samples[i] = [2]float64{ts.Seconds(), s.Values[i]}
			}
			rep.Series = append(rep.Series, row)
		}
		for _, k := range dev.Table.Kills() {
			rep.Kills = append(rep.Kills, killRow{
				AtSec: k.At.Seconds(), Process: k.Process, Adj: k.Adj, Reason: k.Reason,
			})
		}
		for _, sig := range dev.Table.Signals() {
			rep.Escalation = append(rep.Escalation, signalRow{
				AtSec: sig.At.Seconds(), Level: sig.Level.String(), AvailablePages: int64(sig.Available),
			})
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := atomicio.WriteFile(*jsonPath, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d series, %d kills, %d signals to %s\n",
			len(rep.Series), len(rep.Kills), len(rep.Escalation), *jsonPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mpsim:", err)
	os.Exit(1)
}
