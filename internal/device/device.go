// Package device assembles the simulated Android smartphone: physical
// memory, CPU scheduler, storage, the kernel daemons (kswapd, lmkd,
// mmcqd), the process table, and a set of baseline system processes and
// cached apps.
//
// Profiles reproduce the three devices of the paper's §4.1 evaluation:
//
//   - Nokia 1 — entry level, 1 GB RAM, quad-core 1.1 GHz (Cortex-A53)
//   - Nexus 5 — 2 GB RAM, quad-core 2.33 GHz (Krait 400)
//   - Nexus 6P — 3 GB RAM, octa-core 4×1.55 GHz + 4×2.0 GHz big.LITTLE
//
// Core speeds are expressed relative to a reference 1 GHz Cortex-A53:
// the Krait and A57 cores get a per-clock uplift over the in-order A53.
package device

import (
	"fmt"
	"time"

	"coalqoe/internal/blockio"
	"coalqoe/internal/kswapd"
	"coalqoe/internal/lmkd"
	"coalqoe/internal/mem"
	"coalqoe/internal/proc"
	"coalqoe/internal/sched"
	"coalqoe/internal/simclock"
	"coalqoe/internal/telemetry"
	"coalqoe/internal/trace"
	"coalqoe/internal/units"
)

// Profile describes a device model.
type Profile struct {
	Name string
	// RAM is total physical memory.
	RAM units.Bytes
	// CoreSpeeds lists relative core speeds (1.0 = 1 GHz Cortex-A53).
	CoreSpeeds []float64
	// KernelReserve is pinned kernel/firmware memory.
	KernelReserve units.Bytes
	// ZRAMMax caps the compressed swap space.
	ZRAMMax units.Bytes
	// Thresholds are the cached-count signal thresholds (§2 fn. 6).
	Thresholds proc.SignalThresholds
	// AvailSignals optionally adds the vendor available-memory signal
	// thresholds of Figure 5 (used for the fleet devices; the three
	// evaluation phones use the measured cached-count semantics).
	AvailSignals proc.AvailThresholds
	// SystemAnon is the persistent system-process heap (system_server,
	// media services, SurfaceFlinger, …).
	SystemAnon units.Bytes
	// SystemFileWS is the hot file working set of system processes.
	SystemFileWS units.Bytes
	// CachedApps is the number of background apps resident at boot.
	CachedApps int
	// CachedAppAnon is the heap of each cached app.
	CachedAppAnon units.Bytes
}

// The paper's evaluation devices (§4.1).
var (
	Nokia1 = Profile{
		Name:          "Nokia 1",
		RAM:           1 * units.GiB,
		CoreSpeeds:    []float64{1.1, 1.1, 1.1, 1.1},
		KernelReserve: 240 * units.MiB,
		ZRAMMax:       288 * units.MiB,
		Thresholds:    proc.SignalThresholds{Moderate: 6, Low: 5, Critical: 3},
		SystemAnon:    90 * units.MiB,
		SystemFileWS:  50 * units.MiB,
		CachedApps:    10,
		CachedAppAnon: 14 * units.MiB,
	}
	Nexus5 = Profile{
		Name:          "Nexus 5",
		RAM:           2 * units.GiB,
		CoreSpeeds:    []float64{3.6, 3.6, 3.6, 3.6},
		KernelReserve: 420 * units.MiB,
		ZRAMMax:       0, // stock Nexus 5 shipped without zRAM
		Thresholds:    proc.SignalThresholds{Moderate: 8, Low: 6, Critical: 4},
		SystemAnon:    160 * units.MiB,
		SystemFileWS:  90 * units.MiB,
		CachedApps:    11,
		CachedAppAnon: 30 * units.MiB,
	}
	Nexus6P = Profile{
		Name:          "Nexus 6P",
		RAM:           3 * units.GiB,
		CoreSpeeds:    []float64{1.55, 1.55, 1.55, 1.55, 4.0, 4.0, 4.0, 4.0},
		KernelReserve: 560 * units.MiB,
		ZRAMMax:       512 * units.MiB,
		Thresholds:    proc.SignalThresholds{Moderate: 10, Low: 8, Critical: 5},
		SystemAnon:    220 * units.MiB,
		SystemFileWS:  120 * units.MiB,
		CachedApps:    13,
		CachedAppAnon: 40 * units.MiB,
	}
)

// Generic builds a fleet-device profile for the §3 user-study
// simulation: RAM in GiB, core count and a single relative speed.
func Generic(name string, ram units.Bytes, cores int, speed float64) Profile {
	speeds := make([]float64, cores)
	for i := range speeds {
		speeds[i] = speed
	}
	// Scale constants with RAM, mirroring how vendors provision. The
	// signal thresholds sit a few processes below the resting cached
	// count, as on real devices: a burst of lmkd kills is what trips
	// them (§2 fn. 6).
	gib := float64(ram) / float64(units.GiB)
	cached := 7 + int(2*gib)
	// Vendor-specific available-memory thresholds with a deterministic
	// per-model spread (Figure 5 observes exactly this variation).
	vendor := 0.8 + 0.4*hash01(name)
	availAt := func(frac float64) units.Bytes {
		return units.Bytes(frac * vendor * float64(ram))
	}
	return Profile{
		Name:          name,
		RAM:           ram,
		CoreSpeeds:    speeds,
		KernelReserve: units.Bytes(float64(280*units.MiB) * (0.6 + 0.4*gib)),
		ZRAMMax:       ram / 4,
		Thresholds:    proc.SignalThresholds{Moderate: cached - 3, Low: cached - 5, Critical: cached - 7},
		AvailSignals: proc.AvailThresholds{
			Moderate: units.PagesOf(availAt(0.14)),
			Low:      units.PagesOf(availAt(0.10)),
			Critical: units.PagesOf(availAt(0.065)),
		},
		SystemAnon:    units.Bytes(float64(100*units.MiB) * (0.5 + 0.5*gib)),
		SystemFileWS:  units.Bytes(float64(50*units.MiB) * (0.5 + 0.5*gib)),
		CachedApps:    cached,
		CachedAppAnon: 28 * units.MiB,
	}
}

// hash01 maps a string to a deterministic value in [0, 1).
func hash01(s string) float64 {
	h := uint64(14695981039346656037)
	for _, c := range s {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return float64(h%10000) / 10000
}

// Device is a fully wired simulated smartphone.
type Device struct {
	Profile Profile
	Clock   *simclock.Clock
	Tracer  *trace.Tracer
	Sched   *sched.Scheduler
	Mem     *mem.Memory
	Disk    *blockio.Disk
	Kswapd  *kswapd.Daemon
	Lmkd    *lmkd.Daemon
	Table   *proc.Table

	// SurfaceFlinger is the system compositor thread; the video
	// pipeline submits per-frame composition work to it.
	SurfaceFlinger *sched.Thread

	// Telem and Sampler are non-nil when Options.Telemetry enabled the
	// metrics subsystem; one registry per device keeps parallel runs
	// share-nothing.
	Telem   *telemetry.Registry
	Sampler *telemetry.Sampler

	system *proc.Process
}

// Options tweak the assembly for ablation experiments.
type Options struct {
	// SchedTick overrides the scheduler quantum.
	SchedTick time.Duration
	// LmkdConfig overrides lmkd settings.
	LmkdConfig *lmkd.Config
	// KswapdConfig overrides kswapd settings.
	KswapdConfig *kswapd.Config
	// DiskConfig overrides storage settings (e.g. the mmcqd
	// FairPriority ablation).
	DiskConfig *blockio.Config
	// DisableZRAM forces zRAM off regardless of the profile (ablation).
	DisableZRAM bool
	// Telemetry enables the metrics subsystem: every layer registers
	// its instruments in a per-device registry and a sim-clock sampler
	// snapshots them every telemetry.Period (3 s, the SignalCapturer
	// cadence). False keeps telemetry off — the free default.
	Telemetry bool
}

// New assembles a device from a profile. seed determines all stochastic
// behavior; identical seeds give identical runs.
func New(seed int64, p Profile, opts Options) *Device {
	clock := simclock.New(seed)
	tr := trace.New(0)
	s := sched.New(clock, sched.Config{CoreSpeeds: p.CoreSpeeds, Tracer: tr, Tick: opts.SchedTick})
	zram := p.ZRAMMax
	if opts.DisableZRAM {
		zram = 0
	}
	m := mem.New(clock, mem.Config{
		Total:         p.RAM,
		KernelReserve: p.KernelReserve,
		ZRAMMax:       zram,
	})
	dcfg := blockio.Config{}
	if opts.DiskConfig != nil {
		dcfg = *opts.DiskConfig
	}
	disk := blockio.New(clock, s, dcfg)
	kcfg := kswapd.Config{}
	if opts.KswapdConfig != nil {
		kcfg = *opts.KswapdConfig
	}
	k := kswapd.New(clock, s, m, disk, kcfg)
	table := proc.NewTable(clock, s, m, disk, k, p.Thresholds)
	table.Avail = p.AvailSignals
	lcfg := lmkd.Config{}
	if opts.LmkdConfig != nil {
		lcfg = *opts.LmkdConfig
	}
	lk := lmkd.New(clock, s, m, table, lcfg)

	d := &Device{
		Profile: p,
		Clock:   clock,
		Tracer:  tr,
		Sched:   s,
		Mem:     m,
		Disk:    disk,
		Kswapd:  k,
		Lmkd:    lk,
		Table:   table,
	}

	if opts.Telemetry {
		d.Telem = telemetry.NewRegistry()
		m.Instrument(d.Telem)
		k.Instrument(d.Telem)
		lk.Instrument(d.Telem)
		disk.Instrument(d.Telem)
		s.Instrument(d.Telem)
		d.Sampler = telemetry.NewSampler(clock, d.Telem)
	}

	// Boot the baseline system processes.
	d.system = table.Start(proc.Spec{
		Name:        "system_server",
		Adj:         proc.AdjNative,
		AnonBytes:   p.SystemAnon,
		FileWSBytes: p.SystemFileWS,
		HotAnonFrac: 0.7,
		ExtraThreads: []string{
			"SurfaceFlinger", "Binder", "android.display",
		},
	})
	d.SurfaceFlinger = d.system.Thread("SurfaceFlinger")

	for i := 0; i < p.CachedApps; i++ {
		table.Start(proc.Spec{
			Name:      fmt.Sprintf("bgapp%02d", i),
			Adj:       proc.AdjCached + i,
			Cached:    true,
			AnonBytes: p.CachedAppAnon,
		})
	}

	// Light system background activity: Binder traffic, display
	// updates, job scheduler work. It keeps the cores from being
	// perfectly idle, so storage interrupts occasionally preempt
	// running threads even in the Normal state (Table 5's baseline).
	for i, th := range []*sched.Thread{d.system.Thread("Binder"), d.system.Thread("android.display")} {
		th := th
		offset := time.Duration(31*(i+1)) * time.Millisecond
		clock.Schedule(offset, func() {
			clock.Every(97*time.Millisecond, func() {
				jitter := 0.5 + clock.Rand().Float64()
				th.Enqueue(time.Duration(6*jitter*float64(time.Millisecond)), nil)
			})
		})
	}

	// System-wide demand paging: when the page cache cannot hold the
	// registered working sets, every running process refaults its
	// evicted pages — system services included. Each thread stalls in
	// uninterruptible sleep behind the storage queue, which is how the
	// thrashing floor under memory pressure affects even lightweight
	// foreground work. Faults are demand-driven (a blocked thread
	// raises no more), bounding the queue.
	sysFaultTargets := []*sched.Thread{
		d.system.Thread("Binder"), d.system.Thread("android.display"),
	}
	clock.Every(100*time.Millisecond, func() {
		deficit := m.RefaultDeficit()
		if deficit <= 0 {
			return
		}
		const sysFaultsPerSec = 1200
		n := int(sysFaultsPerSec * deficit * 0.1)
		rng := clock.Rand()
		for i := 0; i < n; i++ {
			th := sysFaultTargets[rng.Intn(len(sysFaultTargets))]
			if th.QueueLen() > 3 {
				continue
			}
			pages := units.Pages(8 + rng.Intn(24))
			barrier := th.EnqueueIOBarrier()
			disk.Read(pages, func() {
				m.FileRead(pages)
				barrier()
			})
		}
	})

	// Background write traffic: system services journal state
	// (settings, usage stats, logs) continuously. The dirty pages are
	// what reclaim must flush through mmcqd under pressure (§2).
	clock.Every(997*time.Millisecond, func() {
		dirty := units.PagesOf(384 * units.KiB)
		m.FileRead(dirty)
		m.MarkDirty(dirty)
	})

	// Periodic writeback: like the kernel's dirty-expiry flusher, aged
	// dirty pages go to storage every few seconds even with no memory
	// pressure — which is why mmcqd preempts video threads a few
	// hundred times even in the Normal state (Table 5).
	clock.Every(5*time.Second, func() {
		if flushed := m.BeginFlush(m.FileDirty()); flushed > 0 {
			disk.Write(flushed, func() { m.CompleteFlushClean(flushed) })
		}
	})

	// Android "tries to aggressively cache processes at all times"
	// (§2 fn. 6): killed cached apps respawn after a while, when
	// memory allows. This is what lets pressure states decay back
	// toward Normal (Figure 6) — and what a pressure tool must fight.
	table.OnKill(func(victim *proc.Process, _ string) {
		if !victim.Cached {
			return
		}
		spec := proc.Spec{
			Name:      victim.Name + "'",
			Adj:       victim.Adj,
			Cached:    true,
			AnonBytes: victim.AnonPages().Bytes(),
		}
		var respawn func()
		respawn = func() {
			// Only restart when there is comfortable headroom.
			if float64(m.Available()) > 0.12*float64(m.Total()) {
				table.Start(spec)
				return
			}
			clock.Schedule(10*time.Second, respawn)
		}
		clock.Schedule(15*time.Second+time.Duration(clock.Rand().Intn(15000))*time.Millisecond, respawn)
	})
	return d
}

// Run advances the simulation to the given absolute virtual time.
func (d *Device) Run(until time.Duration) { d.Clock.RunUntil(until) }

// Settle runs the device for the given duration from now, letting boot
// allocations and reclaim settle before an experiment starts.
func (d *Device) Settle(dur time.Duration) { d.Clock.RunUntil(d.Clock.Now() + dur) }

// String identifies the device.
func (d *Device) String() string {
	return fmt.Sprintf("%s (%s RAM, %d cores)", d.Profile.Name, d.Profile.RAM, len(d.Profile.CoreSpeeds))
}
