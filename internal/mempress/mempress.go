// Package mempress applies memory pressure to a simulated device, the
// way the paper does it (§4.1): a custom application — a port of the
// MP Simulator app from Qazi et al. [34] — "allocates memory until a
// target memory pressure regime is achieved", plus an "organic" mode
// that opens background applications like the §4.3/§5 experiments.
package mempress

import (
	"fmt"
	"time"

	"coalqoe/internal/device"
	"coalqoe/internal/proc"
	"coalqoe/internal/units"
)

// Applicator grows a balloon allocation until the device reports the
// target pressure level, then holds it — the MP Simulator behavior.
type Applicator struct {
	dev     *device.Device
	target  proc.Level
	balloon *proc.Process
	reached bool
	stopped bool

	onReached func()
}

const (
	// stepBytes is allocated per growth step.
	stepBytes = 8 * units.MiB
	// stepInterval is the growth cadence.
	stepInterval = 50 * time.Millisecond
	// touchBytesPerSec is how fast the tool walks its allocation while
	// holding: 120 MiB/s. Touching compressed pages swaps them back in
	// from zRAM, which keeps the reclaim path permanently busy —
	// without this, the kernel would quietly compress the whole
	// balloon and the pressure would evaporate.
	touchBytesPerSec = 120 * units.MiB
)

// Apply starts the balloon toward the target level. onReached (may be
// nil) fires once when the device first reports a level at or above the
// target. Applying Normal returns an inert applicator.
func Apply(d *device.Device, target proc.Level, onReached func()) *Applicator {
	a := &Applicator{dev: d, target: target, onReached: onReached}
	if target == proc.Normal {
		a.reached = true
		if onReached != nil {
			// Fire asynchronously for symmetry with the pressured path.
			d.Clock.Schedule(0, onReached)
		}
		return a
	}
	// The balloon runs as a privileged process (the real tool needs a
	// rooted device): lmkd must squeeze everyone else, not the tool.
	a.balloon = d.Table.Start(proc.Spec{
		Name:        "mpsim",
		Adj:         proc.AdjNative,
		HotAnonFrac: 0.7,
	})
	// The tool grows until the device reports the target level, then
	// holds. Android's re-caching of killed background apps (see
	// package device) decays the level as memory frees up, which
	// re-engages growth — the system settles into an oscillation
	// around genuine scarcity, the same repetition of pressure signals
	// the user study observes on real devices (§3, Figure 6).
	var step func()
	step = func() {
		if a.stopped || a.balloon.Dead() {
			return
		}
		if d.Table.Level() >= a.target {
			if !a.reached {
				a.reached = true
				if a.onReached != nil {
					a.onReached()
				}
			}
			// Hold: keep checking in case the level decays.
			d.Clock.Schedule(stepInterval*4, step)
			return
		}
		a.balloon.GrowAnon(stepBytes, func() {
			d.Clock.Schedule(stepInterval, step)
		})
	}
	d.Clock.Schedule(stepInterval, step)

	// Reallocation cycle: the tool periodically frees and re-allocates
	// a slice of the balloon (page-pool recycling in the real app).
	// The re-allocation bursts are what intermittently push the
	// allocator below the min watermark.
	d.Clock.Every(9*time.Second, func() {
		if a.stopped || a.balloon.Dead() || !a.reached {
			return
		}
		const slice = 32 * units.MiB
		a.balloon.ShrinkAnon(slice)
		d.Clock.Schedule(2*time.Second, func() {
			if !a.stopped && !a.balloon.Dead() {
				a.balloon.GrowAnon(slice, nil)
			}
		})
	})

	// Touch loop: walk the balloon so compressed pages swap back in.
	const touchInterval = 50 * time.Millisecond
	d.Clock.Every(touchInterval, func() {
		if a.stopped || a.balloon.Dead() {
			return
		}
		touch := units.PagesOf(units.Bytes(float64(touchBytesPerSec) * touchInterval.Seconds()))
		compressed := d.Mem.AnonCompressedFraction()
		swapin := units.Pages(float64(touch) * compressed)
		if swapin <= 0 {
			return
		}
		got := d.Mem.SwapInAnon(swapin)
		if got > 0 {
			// Decompression costs CPU on the toucher's thread.
			a.balloon.Main().Enqueue(time.Duration(got)*8*time.Microsecond, nil)
			d.Kswapd.Kick()
		}
	})
	return a
}

// Reached reports whether the target level has been observed.
func (a *Applicator) Reached() bool { return a.reached }

// BalloonBytes returns the current balloon size.
func (a *Applicator) BalloonBytes() units.Bytes {
	if a.balloon == nil {
		return 0
	}
	return a.balloon.AnonPages().Bytes()
}

// Stop releases the balloon.
func (a *Applicator) Stop() {
	a.stopped = true
	if a.balloon != nil && !a.balloon.Dead() {
		a.dev.Table.Kill(a.balloon, "mpsim stop")
	}
}

// Spike launches a short-lived native allocation storm — the "a system
// daemon suddenly needs memory" event of a fault plan (see
// internal/faults): a burst that ramps quickly to bytes with a hot
// working set, forcing reclaim and — if the spike is large enough —
// lmkd kills, then exits after hold. It runs at native adj (like the
// real media/camera servers, whose bursts are the classic trigger):
// lmkd cannot reclaim the spike itself, so sustained pressure resolves
// by killing apps — ultimately the foreground client. Unlike the
// Applicator balloon it is not feedback-controlled: it models a burst,
// not a regime.
func Spike(d *device.Device, name string, bytes units.Bytes, hold time.Duration) *proc.Process {
	ramp := 2 * time.Second
	if hold < 2*ramp {
		ramp = hold / 2
	}
	p := d.Table.Start(proc.Spec{
		Name:        name,
		Adj:         proc.AdjNative,
		AnonBytes:   bytes,
		HotAnonFrac: 0.9,
		RampTime:    ramp,
	})
	d.Clock.Schedule(hold, func() {
		if !p.Dead() {
			d.Table.Kill(p, "mempress spike done")
		}
	})
	return p
}

// BackgroundApp describes one organically opened app.
type BackgroundApp struct {
	Name string
	Anon units.Bytes
	File units.Bytes
}

// TypicalApps returns n apps sized like popular Play Store free apps
// (social/media apps with 60–130 MiB heaps), cycling a fixed set so
// runs are deterministic.
func TypicalApps(n int) []BackgroundApp {
	base := []BackgroundApp{
		{"social1", 120 * units.MiB, 40 * units.MiB},
		{"messaging1", 70 * units.MiB, 25 * units.MiB},
		{"shopping1", 90 * units.MiB, 30 * units.MiB},
		{"social2", 130 * units.MiB, 45 * units.MiB},
		{"browser2", 110 * units.MiB, 35 * units.MiB},
		{"music1", 60 * units.MiB, 20 * units.MiB},
		{"maps1", 100 * units.MiB, 35 * units.MiB},
		{"email1", 65 * units.MiB, 20 * units.MiB},
	}
	out := make([]BackgroundApp, n)
	for i := range out {
		app := base[i%len(base)]
		if i >= len(base) {
			app.Name = fmt.Sprintf("%s-%d", app.Name, i/len(base))
		}
		out[i] = app
	}
	return out
}

// OpenBackgroundApps launches the given apps one by one, spaced by
// interval, reproducing the paper's organic-pressure methodology
// ("we opened 8 background applications before opening the browser").
// The returned processes may be killed by lmkd as pressure mounts.
func OpenBackgroundApps(d *device.Device, apps []BackgroundApp, interval time.Duration) []*proc.Process {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	out := make([]*proc.Process, 0, len(apps))
	for i, app := range apps {
		app := app
		d.Clock.Schedule(time.Duration(i)*interval, func() {
			p := d.Table.Start(proc.Spec{
				Name:        app.Name,
				Adj:         proc.AdjCached + 50,
				Cached:      true,
				AnonBytes:   app.Anon,
				FileWSBytes: app.File,
				HotAnonFrac: 0.6,
				RampTime:    3 * time.Second,
				// Just-opened apps keep their working set warm: this
				// is what makes organic pressure bite (§4.3).
				WarmFor: 2 * time.Minute,
			})
			out = append(out, p)
		})
	}
	return out
}
