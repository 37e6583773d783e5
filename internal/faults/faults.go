// Package faults is a deterministic, seeded fault-injection engine: it
// materializes a named fault plan into concrete impairment windows and
// schedules them on the sim clock. The paper's controlled experiments
// keep the network and storage ideal so that memory pressure is the
// only variable (§4.1); a fault plan deliberately breaks that idealism
// — network outages and loss bursts, block-I/O stall spikes, and
// background memory-spike storms that drive lmkd kills — to exercise
// the recovery machinery a real client carries (retries, backoff,
// crash-restart; see internal/player's Config.Recover).
//
// Determinism: a plan is pure data. Windows derives the concrete
// schedule from an explicit seed with its own generator (one lane per
// fault kind, split from the seed by a stable FNV hash), never from
// the clock's RNG — so the schedule depends only on (plan, seed), not
// on how many events the simulation happened to run first. Runs stay
// byte-identical at any parallelism because the experiment runner
// feeds each run's per-cell seed lane straight into Windows.
package faults

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"coalqoe/internal/device"
	"coalqoe/internal/mempress"
	"coalqoe/internal/netem"
	"coalqoe/internal/telemetry"
	"coalqoe/internal/units"
)

// Kind identifies a fault class.
type Kind int

const (
	// NetOutage takes the link down completely for the window.
	NetOutage Kind = iota
	// NetLoss applies a packet-loss rate (Severity) to the link.
	NetLoss
	// IOStall multiplies storage device service time by Severity.
	IOStall
	// MemSpike launches a background allocation storm of Severity bytes.
	MemSpike
	numKinds
)

// String returns the kind's stable name (used in telemetry series and
// trace mark labels).
func (k Kind) String() string {
	switch k {
	case NetOutage:
		return "net_outage"
	case NetLoss:
		return "net_loss"
	case IOStall:
		return "io_stall"
	case MemSpike:
		return "mem_spike"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Window is one concrete impairment interval. Start is relative to the
// point the plan is materialized for (Attach shifts it to absolute sim
// time; Injector.Windows reports the shifted form).
type Window struct {
	Kind     Kind
	Start    time.Duration
	Duration time.Duration
	// Severity is kind-specific: the loss rate in [0,1) for NetLoss,
	// the device service-time multiplier for IOStall, the allocation
	// size in bytes for MemSpike. Unused for NetOutage.
	Severity float64
}

// End returns the instant the window closes.
func (w Window) End() time.Duration { return w.Start + w.Duration }

// Spec is a named fault plan: mean recurrence and duration per fault
// kind. A zero Every (or Dur) disables that kind. Specs are pure data;
// Windows turns one into a concrete schedule.
type Spec struct {
	Name string

	// OutageEvery/OutageDur schedule full network outages.
	OutageEvery, OutageDur time.Duration
	// LossEvery/LossDur/LossRate schedule packet-loss bursts.
	LossEvery, LossDur time.Duration
	LossRate           float64
	// IOStallEvery/IOStallDur/IOStallFactor schedule storage slowdowns.
	IOStallEvery, IOStallDur time.Duration
	IOStallFactor            float64
	// SpikeEvery/SpikeDur/SpikeBytes schedule memory-spike storms.
	SpikeEvery, SpikeDur time.Duration
	SpikeBytes           units.Bytes
}

// NetFlaky is congested or marginal WiFi: short full outages plus
// longer loss bursts.
func NetFlaky() Spec {
	return Spec{
		Name:        "netflaky",
		OutageEvery: 45 * time.Second, OutageDur: 6 * time.Second,
		LossEvery: 30 * time.Second, LossDur: 10 * time.Second, LossRate: 0.3,
	}
}

// IOStorm is degraded storage: periodic windows where eMMC service
// time balloons (thermal throttling, internal GC).
func IOStorm() Spec {
	return Spec{
		Name:         "iostorm",
		IOStallEvery: 25 * time.Second, IOStallDur: 8 * time.Second, IOStallFactor: 6,
	}
}

// MemStorm is bursty co-resident demand: background services that
// suddenly allocate hundreds of MiB, long enough for lmkd's sustained
// critical-pressure policy to fire.
func MemStorm() Spec {
	return Spec{
		Name:       "memstorm",
		SpikeEvery: 40 * time.Second, SpikeDur: 15 * time.Second, SpikeBytes: 400 * units.MiB,
	}
}

// Mixed combines all three storm families at lower rates.
func Mixed() Spec {
	return Spec{
		Name:        "mixed",
		OutageEvery: 90 * time.Second, OutageDur: 5 * time.Second,
		LossEvery: 60 * time.Second, LossDur: 8 * time.Second, LossRate: 0.25,
		IOStallEvery: 70 * time.Second, IOStallDur: 7 * time.Second, IOStallFactor: 5,
		SpikeEvery: 80 * time.Second, SpikeDur: 12 * time.Second, SpikeBytes: 350 * units.MiB,
	}
}

// RetryStorm is the overload A/B's trigger shape: short, frequent
// total outages whose recovery edge releases the whole fleet's retry
// wave at once. Against an unprotected server the synchronized wave
// drives queue wait past client timeouts and the system goes
// metastable; against the governor it sheds, degrades, and recovers.
func RetryStorm() Spec {
	return Spec{
		Name:        "retrystorm",
		OutageEvery: 8 * time.Second, OutageDur: 3 * time.Second,
	}
}

// Plans returns every named plan, in stable order.
func Plans() []Spec { return []Spec{NetFlaky(), IOStorm(), MemStorm(), Mixed(), RetryStorm()} }

// Lookup resolves a plan by name (the coalctl -faults argument).
func Lookup(name string) (Spec, error) {
	for _, sp := range Plans() {
		if sp.Name == name {
			return sp, nil
		}
	}
	names := make([]string, 0, len(Plans()))
	for _, sp := range Plans() {
		names = append(names, sp.Name)
	}
	return Spec{}, fmt.Errorf("faults: unknown plan %q (have %v)", name, names)
}

// laneSeed splits the run seed into one independent lane per (plan,
// kind), via the same stable-FNV idiom as exp.CellSeed.
func laneSeed(seed int64, name string, k Kind) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "faults|%s|%s", name, k)
	return seed + int64(h.Sum64()&0x7fffffff)
}

// Windows materializes the plan over [0, horizon): per enabled kind,
// gaps and durations are jittered uniformly in [0.5, 1.5)× their means
// by a generator seeded from that kind's lane. The result is sorted by
// start time (ties by kind) and depends only on (plan, seed, horizon).
func (sp Spec) Windows(seed int64, horizon time.Duration) []Window {
	var out []Window
	add := func(k Kind, every, dur time.Duration, sev float64) {
		if every <= 0 || dur <= 0 {
			return
		}
		rng := rand.New(rand.NewSource(laneSeed(seed, sp.Name, k)))
		t := time.Duration(0)
		for {
			t += time.Duration(float64(every) * (0.5 + rng.Float64()))
			if t >= horizon {
				return
			}
			d := time.Duration(float64(dur) * (0.5 + rng.Float64()))
			if t+d > horizon {
				d = horizon - t
			}
			out = append(out, Window{Kind: k, Start: t, Duration: d, Severity: sev})
			t += d
		}
	}
	add(NetOutage, sp.OutageEvery, sp.OutageDur, 0)
	add(NetLoss, sp.LossEvery, sp.LossDur, sp.LossRate)
	add(IOStall, sp.IOStallEvery, sp.IOStallDur, sp.IOStallFactor)
	add(MemSpike, sp.SpikeEvery, sp.SpikeDur, float64(sp.SpikeBytes))
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Injector applies materialized windows to a live device: it schedules
// every window's begin/end on the device clock and drives the link,
// disk, and process table accordingly.
type Injector struct {
	dev     *device.Device
	link    *netem.Link
	windows []Window // absolute sim times
	active  int
	loss    []float64 // severities of open NetLoss windows
	iostall []float64 // severities of open IOStall windows
	spikes  int

	tmActive *telemetry.Gauge
	tmKind   [numKinds]*telemetry.Counter
}

// Attach schedules windows (whose starts are relative to the current
// instant) on the device clock and returns the injector. link may be
// nil when the plan carries no network faults. With telemetry enabled
// on the device, the injector registers an active-window gauge and
// per-kind window counters.
func Attach(dev *device.Device, link *netem.Link, windows []Window) *Injector {
	inj := &Injector{dev: dev, link: link}
	if dev.Telem != nil {
		inj.instrument(dev.Telem)
	}
	now := dev.Clock.Now()
	for _, w := range windows {
		w.Start += now
		inj.windows = append(inj.windows, w)
		w := w
		dev.Clock.At(w.Start, func() { inj.begin(w) })
		dev.Clock.At(w.End(), func() { inj.end(w) })
	}
	return inj
}

// instrument registers the injector's telemetry. The counters count
// window *starts*; the gauge tracks concurrently open windows — the
// "active-fault" signal sessions correlate stalls against.
func (inj *Injector) instrument(reg *telemetry.Registry) {
	inj.tmActive = reg.Gauge("faults.active_windows")
	for k := Kind(0); k < numKinds; k++ {
		inj.tmKind[k] = reg.Counter("faults.windows_" + k.String())
	}
}

// FaultActive reports whether any window is currently open — the probe
// player sessions use to attribute stalls to injected faults.
func (inj *Injector) FaultActive() bool { return inj.active > 0 }

// Windows returns the injected windows with absolute sim-time starts —
// plain data, safe to retain in an exp.Result and export to traces.
func (inj *Injector) Windows() []Window {
	return append([]Window(nil), inj.windows...)
}

func (inj *Injector) begin(w Window) {
	inj.active++
	inj.tmActive.Set(float64(inj.active))
	if k := w.Kind; k >= 0 && k < numKinds {
		inj.tmKind[k].Inc()
	}
	switch w.Kind {
	case NetOutage:
		if inj.link != nil {
			inj.link.OutageFor(w.Duration)
		}
	case NetLoss:
		if inj.link != nil {
			inj.loss = append(inj.loss, w.Severity)
			inj.link.SetLoss(maxOf(inj.loss))
		}
	case IOStall:
		inj.iostall = append(inj.iostall, w.Severity)
		inj.dev.Disk.SetSlowFactor(maxOf(inj.iostall))
	case MemSpike:
		inj.spikes++
		mempress.Spike(inj.dev, fmt.Sprintf("memspike%02d", inj.spikes),
			units.Bytes(w.Severity), w.Duration)
	}
}

func (inj *Injector) end(w Window) {
	inj.active--
	inj.tmActive.Set(float64(inj.active))
	switch w.Kind {
	case NetLoss:
		if inj.link != nil {
			inj.loss = removeOne(inj.loss, w.Severity)
			inj.link.SetLoss(maxOf(inj.loss))
		}
	case IOStall:
		inj.iostall = removeOne(inj.iostall, w.Severity)
		if f := maxOf(inj.iostall); f > 1 {
			inj.dev.Disk.SetSlowFactor(f)
		} else {
			inj.dev.Disk.SetSlowFactor(1)
		}
		// NetOutage expires on its own (OutageFor carries the end time);
		// MemSpike processes schedule their own exit.
	}
}

// maxOf returns the largest element, or 0 for an empty slice. With
// overlapping windows of one kind the strongest severity wins.
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// removeOne deletes the first element equal to v.
func removeOne(xs []float64, v float64) []float64 {
	for i, x := range xs {
		if x == v {
			return append(xs[:i], xs[i+1:]...)
		}
	}
	return xs
}
