// Package lmkd implements the userspace low-memory killer daemon.
//
// As §2 of the paper describes, lmkd "relies on memory pressure signals
// from the kernel to decide which process groups (i.e., processes with
// certain oom_adj scores) become eligible to be killed", using the
// estimate P = (1 − R/S) · 100:
//
//   - when 60 < P < 95, processes with high oom_adj (cached/background
//     apps) become eligible,
//   - when P ≥ 95, foreground apps become eligible — this is what kills
//     the video client and produces the crash rates of Tables 2–3 and
//     the lmkd CPU spike of Figure 14.
//
// Victim selection follows §2: highest oom_adj first, least recently
// used first within a group.
package lmkd

import (
	"time"

	"coalqoe/internal/mem"
	"coalqoe/internal/proc"
	"coalqoe/internal/sched"
	"coalqoe/internal/simclock"
	"coalqoe/internal/telemetry"
)

// Config tunes the daemon.
type Config struct {
	// MinFreeCachedFrac gates cached-app kills: free memory must be
	// below this fraction of total RAM. Android's lowmemorykiller
	// minfree levels sit well above the kernel watermarks; default 0.08.
	MinFreeCachedFrac float64
	// AvailCachedFrac makes cached apps killable whenever available
	// memory (free + file cache) sinks below this fraction of total
	// RAM, regardless of the P estimate — the legacy minfree
	// criterion. Default 0.15.
	AvailCachedFrac float64
	// KillCooldown is the minimum gap between kills, letting the freed
	// memory land before the next victim is chosen. Default 500ms.
	KillCooldown time.Duration
}

func (c *Config) applyDefaults() {
	if c.MinFreeCachedFrac <= 0 {
		c.MinFreeCachedFrac = 0.08
	}
	if c.AvailCachedFrac <= 0 {
		c.AvailCachedFrac = 0.15
	}
	if c.KillCooldown <= 0 {
		c.KillCooldown = 500 * time.Millisecond
	}
}

// Poll cadence, pressure thresholds and kill cost of the modelled
// daemon.
const (
	// pollInterval is the pressure-check cadence.
	pollInterval = 100 * time.Millisecond
	// cachedThreshold is the P value above which cached apps become
	// killable.
	cachedThreshold = 60
	// criticalThreshold is the P value at or above which foreground
	// apps become killable.
	criticalThreshold = 95
	// fgSustainPolls is how many consecutive polls must observe
	// critical pressure before a foreground app may be killed,
	// mirroring lmkd's PSI stall windows: 15 polls, 1.5 s.
	fgSustainPolls = 15
	// killCPU is the CPU lmkd burns per kill (victim lookup, signal
	// delivery, reaping): the utilization spike visible when a session
	// crashes (Figure 14).
	killCPU = 8 * time.Millisecond
	// minFreeForegroundFrac gates foreground kills: free memory must be
	// below this fraction of total RAM.
	minFreeForegroundFrac = 0.045
)

// Daemon is the lmkd model.
type Daemon struct {
	clock  *simclock.Clock
	mem    *mem.Memory
	table  *proc.Table
	cfg    Config
	thread *sched.Thread

	killInFlight  bool
	criticalPolls int           // consecutive polls with P >= criticalThreshold
	lastKill      time.Duration // for the kill cooldown

	// KillCount is the number of processes killed so far.
	KillCount int
	// ForegroundKills counts kills with adj <= visible (app crashes).
	ForegroundKills int

	// telemetry instruments; nil (free no-ops) until Instrument.
	tmPolls *telemetry.Counter
	tmKills [adjBuckets]*telemetry.Counter
}

// adj buckets for the kills-by-oom_adj telemetry, mirroring §2's
// process groups: foreground (adj ≤ 0, includes native), visible,
// service, cached.
const (
	bucketForeground = iota
	bucketVisible
	bucketService
	bucketCached
	adjBuckets
)

func adjBucket(adj int) int {
	switch {
	case adj <= proc.AdjForeground:
		return bucketForeground
	case adj <= proc.AdjVisible:
		return bucketVisible
	case adj <= proc.AdjService:
		return bucketService
	default:
		return bucketCached
	}
}

// New creates the daemon and starts its poll loop. The lmkd thread is
// in the fair class (the real daemon is a normal userspace process).
func New(clock *simclock.Clock, s *sched.Scheduler, m *mem.Memory, table *proc.Table, cfg Config) *Daemon {
	cfg.applyDefaults()
	d := &Daemon{
		clock:  clock,
		mem:    m,
		table:  table,
		cfg:    cfg,
		thread: s.Spawn("lmkd", "lmkd", sched.ClassFair, -10),
	}
	clock.Every(pollInterval, d.poll)
	return d
}

// Thread returns lmkd's thread, e.g. for CPU-utilization sampling
// (Figure 14 tracks it with top).
func (d *Daemon) Thread() *sched.Thread { return d.thread }

// Instrument registers the daemon's telemetry: the poll counter, the
// pressure estimate P the polls act on (§2's P = (1 − R/S) · 100),
// and kills split by oom_adj bucket — the foreground bucket is the
// crash series of Tables 2–3.
func (d *Daemon) Instrument(reg *telemetry.Registry) {
	d.tmPolls = reg.Counter("lmkd.polls")
	d.tmKills[bucketForeground] = reg.Counter("lmkd.kills_foreground")
	d.tmKills[bucketVisible] = reg.Counter("lmkd.kills_visible")
	d.tmKills[bucketService] = reg.Counter("lmkd.kills_service")
	d.tmKills[bucketCached] = reg.Counter("lmkd.kills_cached")
	reg.SampleFunc("lmkd.pressure", d.mem.Pressure)
}

// minAdj returns the kill-eligibility floor for the current pressure,
// or false if nothing is eligible. Cached apps are eligible either
// through the P estimate (§2) or through the legacy minfree criterion
// on available memory.
func (d *Daemon) minAdj() (int, bool) {
	p := d.mem.Pressure()
	switch {
	case p >= criticalThreshold:
		return proc.AdjForeground, true
	case p > cachedThreshold:
		return proc.AdjCached, true
	case float64(d.mem.Available()) < d.cfg.AvailCachedFrac*float64(d.mem.Total()):
		return proc.AdjCached, true
	default:
		return 0, false
	}
}

func (d *Daemon) poll() {
	d.tmPolls.Inc()
	if d.mem.Pressure() >= criticalThreshold {
		d.criticalPolls++
	} else {
		d.criticalPolls = 0
	}
	if d.killInFlight {
		return
	}
	if d.KillCount > 0 && d.clock.Now()-d.lastKill < d.cfg.KillCooldown {
		return
	}
	minAdj, eligible := d.minAdj()
	if !eligible {
		return
	}
	total := float64(d.mem.Total())
	if minAdj <= proc.AdjForeground {
		if float64(d.mem.Free()) >= minFreeForegroundFrac*total {
			return
		}
	} else if float64(d.mem.Free()) >= d.cfg.MinFreeCachedFrac*total &&
		float64(d.mem.Available()) >= d.cfg.AvailCachedFrac*total {
		return
	}
	cands := d.table.KillCandidates(minAdj)
	if len(cands) == 0 {
		return
	}
	victim := cands[0]
	// Foreground (and visible) apps die only under *sustained*
	// critical pressure — a transient P spike from one allocation
	// burst must not kill the app the user is watching.
	if victim.Adj <= proc.AdjVisible && d.criticalPolls < fgSustainPolls {
		return
	}
	// The kill costs lmkd CPU before the memory comes back; under heavy
	// contention even the killer is slow.
	d.killInFlight = true
	d.thread.Enqueue(killCPU, func() {
		d.killInFlight = false
		if victim.Dead() {
			return
		}
		d.KillCount++
		d.lastKill = d.clock.Now()
		d.tmKills[adjBucket(victim.Adj)].Inc()
		if victim.Adj <= proc.AdjVisible {
			d.ForegroundKills++
		}
		d.table.Kill(victim, "lmkd")
	})
}
