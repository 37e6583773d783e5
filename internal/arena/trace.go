package arena

import (
	"fmt"
	"io"
	"time"

	"coalqoe/internal/abr"
	"coalqoe/internal/device"
	"coalqoe/internal/exp"
	"coalqoe/internal/player"
	"coalqoe/internal/proc"
	"coalqoe/internal/trace"
)

// WriteDecisionTrace replays one instrumented session — the named
// entrant on the configured content, under the given regime and plan —
// with full interval recording, telemetry sampling and the ABR
// decision log enabled, and writes a chrome://tracing document. The
// export carries three synthetic mark tracks on top of the thread
// states and counter series: "faults" (injected impairment windows),
// "abr" (every decision, switches as intervals between them), so a
// Perfetto view shows what the algorithm saw and chose right above
// the kernel activity that provoked it.
//
// The replay is one serial run seeded from cfg exactly like the
// tournament cell, so the exported trace is a member of the grid, not
// a new scenario.
func WriteDecisionTrace(cfg Config, entrant string, regime proc.Level, plan string, w io.Writer) error {
	var ent *Entrant
	for i := range entrants {
		if entrants[i].Name == entrant {
			ent = &entrants[i]
			break
		}
	}
	if ent == nil {
		return fmt.Errorf("arena: unknown entrant %q", entrant)
	}
	var pl *Plan
	for i := range plans {
		if plans[i].Name == plan {
			pl = &plans[i]
			break
		}
	}
	if pl == nil {
		return fmt.Errorf("arena: unknown plan %q (not on the configured axis)", plan)
	}

	var ctrl *abr.Controller
	vr := exp.VideoRun{
		Profile:      devices[0],
		Video:        video(cfg.Quick),
		Resolution:   startRes,
		FPS:          startFPS,
		Pressure:     regime,
		Faults:       pl.Spec,
		PlayerTweaks: tweaks,
		KeepTrace:    true,
		DeviceOpts:   device.Options{Telemetry: true},
		OnSession: func(s *player.Session, dev *device.Device) {
			ctrl = abr.Attach(s, dev, ent.New(), 2*time.Second)
			ctrl.RecordDecisions = true
		},
	}
	// Same seed lane as the tournament: cell base + 1, the first
	// repeat's seed.
	vr.Seed = exp.CellSeed(cfg.Seed, vr) + 1
	res := exp.Run(vr)

	var marks []trace.Mark
	for _, fw := range res.FaultWindows {
		marks = append(marks, trace.Mark{
			Name: "fault:" + fw.Kind.String(), Start: fw.Start, End: fw.End(),
		})
	}
	if ctrl != nil {
		for i, d := range ctrl.Decisions {
			m := trace.Mark{Track: "abr", Start: d.At, End: d.At}
			if d.To != d.From {
				m.Name = fmt.Sprintf("switch %s -> %s", d.From, d.To)
			} else {
				m.Name = "hold " + d.To.String()
			}
			// Render each decision as the interval it governs: from
			// its instant to the next decision (the last one stays an
			// instant marker).
			if i+1 < len(ctrl.Decisions) {
				m.End = ctrl.Decisions[i+1].At
			}
			marks = append(marks, m)
		}
	}
	return res.Device.Tracer.WriteChromeTrace(w, res.Telemetry, marks...)
}
