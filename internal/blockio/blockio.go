// Package blockio models the eMMC storage device and its kernel service
// daemon mmcqd, "which manages queued I/O operations on storage" (§2).
//
// Two properties of mmcqd matter for the paper's findings and are
// reproduced exactly:
//
//  1. mmcqd runs in the real-time scheduling class, so it "is strictly
//     prioritized over foreground processes and therefore can steal CPU
//     time from them" (§2). Every request costs mmcqd CPU, which under
//     memory pressure is what preempts video client threads (Table 5).
//  2. The device itself is serial: requests queue, so under reclaim
//     writeback plus refault reads the per-request latency balloons,
//     lengthening uninterruptible (D-state) waits.
package blockio

import (
	"time"

	"coalqoe/internal/sched"
	"coalqoe/internal/simclock"
	"coalqoe/internal/telemetry"
	"coalqoe/internal/units"
)

// Config selects the mmcqd ablation.
type Config struct {
	// FairPriority runs mmcqd in the fair class instead of RT — the
	// §7 ablation quantifying how much of the damage comes from
	// mmcqd's strict priority over foreground threads.
	FairPriority bool
}

// Device and daemon costs of the modelled entry-level eMMC.
const (
	// readPerPage is device service time per page read. Refault reads
	// are scattered 4K reads, far from sequential speed on entry-level
	// eMMC: 60µs is ~65 MB/s.
	readPerPage = 60 * time.Microsecond
	// writePerPage is device service time per page written: 90µs is
	// ~45 MB/s.
	writePerPage = 90 * time.Microsecond
	// requestOverhead is fixed device time per request (command setup
	// plus the effective seek of a scattered access).
	requestOverhead = 400 * time.Microsecond
	// cpuPerRequest is mmcqd CPU per request (queue management,
	// completion handling).
	cpuPerRequest = 120 * time.Microsecond
	// cpuPerPage is additional mmcqd CPU per page.
	cpuPerPage = time.Microsecond
)

// Stats counts disk activity.
type Stats struct {
	ReadRequests  int
	WriteRequests int
	PagesRead     units.Pages
	PagesWritten  units.Pages
	DeviceBusy    time.Duration
	// PeakBacklog is the largest outstanding device time observed at
	// any request submission. QueueDepth is instantaneous — by the time
	// a caller polls it, a reclaim writeback burst has usually drained —
	// so without this high-water mark the worst-case queue was
	// unobservable from a Stats snapshot.
	PeakBacklog time.Duration
}

// Disk is the storage device plus its mmcqd daemon thread.
type Disk struct {
	clock     *simclock.Clock
	mmcqd     *sched.Thread
	busyUntil time.Duration
	slow      float64 // device service-time multiplier; 1 = nominal
	stats     Stats
	// free holds request records whose requests mmcqd has started.
	free []*request

	// telemetry instruments; nil (free no-ops) until Instrument.
	tmLatency *telemetry.Histogram
	tmPeak    *telemetry.Gauge
}

// New creates a Disk and spawns its mmcqd thread (RT class unless the
// FairPriority ablation is set) on s.
func New(clock *simclock.Clock, s *sched.Scheduler, cfg Config) *Disk {
	class := sched.ClassRT
	if cfg.FairPriority {
		class = sched.ClassFair
	}
	return &Disk{
		clock: clock,
		mmcqd: s.Spawn("mmcqd/0", "kernel", class, 0),
	}
}

// Thread returns the mmcqd thread (for trace queries).
func (d *Disk) Thread() *sched.Thread { return d.mmcqd }

// SetSlowFactor scales device service time (request overhead and
// per-page cost) by f — an injected storage-degradation window:
// thermal throttling or the internal garbage collection of cheap eMMC.
// Values below 1 are clamped to 1 (nominal). Requests already being
// serviced keep their original timing; the factor applies at service
// start.
func (d *Disk) SetSlowFactor(f float64) {
	if f < 1 {
		f = 1
	}
	d.slow = f
}

// SlowFactor returns the current service-time multiplier.
func (d *Disk) SlowFactor() float64 {
	if d.slow < 1 {
		return 1
	}
	return d.slow
}

// Instrument registers the disk's telemetry: request/page counters and
// queue depth as sampled series, the peak-backlog high-water gauge
// (updated at submit time, so bursts between samples are not lost),
// and a per-request latency histogram from submission to data
// availability — mmcqd queueing plus serial device service, the
// quantity that balloons under reclaim writeback (§2).
func (d *Disk) Instrument(reg *telemetry.Registry) {
	d.tmLatency = reg.Histogram("blockio.request_latency")
	d.tmPeak = reg.Gauge("blockio.peak_backlog_us")
	reg.SampleFunc("blockio.read_requests", func() float64 { return float64(d.stats.ReadRequests) })
	reg.SampleFunc("blockio.write_requests", func() float64 { return float64(d.stats.WriteRequests) })
	reg.SampleFunc("blockio.pages_read", func() float64 { return float64(d.stats.PagesRead) })
	reg.SampleFunc("blockio.pages_written", func() float64 { return float64(d.stats.PagesWritten) })
	reg.SampleFunc("blockio.queue_depth_us", func() float64 {
		return float64(d.QueueDepth() / time.Microsecond)
	})
	reg.SampleFunc("blockio.device_busy_us", func() float64 {
		return float64(d.stats.DeviceBusy / time.Microsecond)
	})
}

// Stats returns cumulative disk statistics.
func (d *Disk) Stats() Stats { return d.stats }

// QueueDepth estimates outstanding device time.
func (d *Disk) QueueDepth() time.Duration {
	q := d.busyUntil - d.clock.Now()
	if q < 0 {
		return 0
	}
	return q
}

// Read submits a read of pages; onDone (may be nil) fires when the data
// is available. The request first costs mmcqd CPU (at RT priority),
// then waits for the serial device.
func (d *Disk) Read(pages units.Pages, onDone func()) {
	d.submit(pages, readPerPage, onDone)
	d.stats.ReadRequests++
	d.stats.PagesRead += pages
}

// Write submits a write of pages (e.g. dirty-page writeback).
func (d *Disk) Write(pages units.Pages, onDone func()) {
	d.submit(pages, writePerPage, onDone)
	d.stats.WriteRequests++
	d.stats.PagesWritten += pages
}

// request is one submitted block request, waiting for mmcqd to start
// it. Records are recycled through Disk.free: run returns its record to
// the list once it has scheduled the completion, so a disk allocates
// only as many records as it ever has requests queued at once.
type request struct {
	d         *Disk
	pages     units.Pages
	perPage   time.Duration
	onDone    func()
	submitted time.Duration
	// start is the bound run method, created once per record so a
	// recycled record enqueues no fresh closure.
	start func()
}

func (d *Disk) submit(pages units.Pages, perPage time.Duration, onDone func()) {
	if pages < 0 {
		pages = 0
	}
	var r *request
	if n := len(d.free); n > 0 {
		r = d.free[n-1]
		d.free[n-1] = nil
		d.free = d.free[:n-1]
	} else {
		r = &request{d: d}
		r.start = r.run
	}
	r.pages, r.perPage, r.onDone, r.submitted = pages, perPage, onDone, d.clock.Now()
	cpu := cpuPerRequest + time.Duration(pages)*cpuPerPage
	d.mmcqd.Enqueue(cpu, r.start)
}

// run is mmcqd finishing its CPU work on r: device service starts when
// the device frees up.
func (r *request) run() {
	d := r.d
	now := d.clock.Now()
	start := d.busyUntil
	if start < now {
		start = now
	}
	service := requestOverhead + time.Duration(r.pages)*r.perPage
	if d.slow > 1 {
		service = time.Duration(float64(service) * d.slow)
	}
	d.busyUntil = start + service
	d.stats.DeviceBusy += service
	if backlog := d.busyUntil - now; backlog > d.stats.PeakBacklog {
		d.stats.PeakBacklog = backlog
		d.tmPeak.Max(float64(backlog / time.Microsecond))
	}
	d.tmLatency.Observe(d.busyUntil - r.submitted)
	if r.onDone != nil {
		d.clock.At(d.busyUntil, r.onDone)
		r.onDone = nil
	}
	d.free = append(d.free, r)
}
