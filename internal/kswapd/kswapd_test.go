package kswapd

import (
	"testing"
	"time"

	"coalqoe/internal/blockio"
	"coalqoe/internal/mem"
	"coalqoe/internal/sched"
	"coalqoe/internal/simclock"
	"coalqoe/internal/trace"
	"coalqoe/internal/units"
)

type env struct {
	clock *simclock.Clock
	sch   *sched.Scheduler
	tr    *trace.Tracer
	mem   *mem.Memory
	disk  *blockio.Disk
	kswd  *Daemon
}

func setup(t *testing.T, total units.Bytes) *env {
	t.Helper()
	clock := simclock.New(1)
	tr := trace.New(0)
	s := sched.New(clock, sched.Config{CoreSpeeds: []float64{1, 1}, Tracer: tr})
	m := mem.New(clock, mem.Config{
		Total:         total,
		KernelReserve: 100 * units.MiB,
		ZRAMMax:       total / 4,
	})
	d := blockio.New(clock, s, blockio.Config{})
	k := New(clock, s, m, d, Config{})
	return &env{clock: clock, sch: s, tr: tr, mem: m, disk: d, kswd: k}
}

func TestWakesBelowLowWatermark(t *testing.T) {
	e := setup(t, units.GiB)
	// Fill file cache, then allocate anon down past the low watermark.
	e.mem.FileRead(units.PagesOf(500 * units.MiB))
	_, low, _ := e.mem.Watermarks()
	e.mem.AllocAnon(e.mem.Free() - low + 100)
	if !e.mem.BelowLow() {
		t.Fatal("setup: not below low watermark")
	}
	e.clock.RunUntil(2 * time.Second)
	if e.kswd.Wakeups == 0 {
		t.Fatal("kswapd never woke")
	}
	if !e.mem.AboveHigh() {
		t.Errorf("free=%d still below high after 2s of reclaim; batches=%d",
			e.mem.Free(), e.kswd.BatchesRun)
	}
	if e.kswd.Active() {
		t.Error("daemon still active after restoring watermark")
	}
}

func TestIdleAboveWatermark(t *testing.T) {
	e := setup(t, units.GiB)
	e.clock.RunUntil(time.Second)
	if e.kswd.Wakeups != 0 {
		t.Errorf("kswapd woke %d times with plenty of free memory", e.kswd.Wakeups)
	}
	e.tr.Finish(e.clock.Now())
	if run := e.tr.TimeInState(trace.ByName("kswapd"), trace.Running); run != 0 {
		t.Errorf("kswapd ran %v while idle", run)
	}
}

func TestDirtyReclaimFlushesToDisk(t *testing.T) {
	e := setup(t, units.GiB)
	e.mem.FileRead(units.PagesOf(600 * units.MiB))
	e.mem.MarkDirty(units.PagesOf(600 * units.MiB))
	_, low, _ := e.mem.Watermarks()
	e.mem.AllocAnon(e.mem.Free() - low + 100)
	e.clock.RunUntil(5 * time.Second)
	if e.disk.Stats().WriteRequests == 0 {
		t.Error("reclaiming dirty pages issued no disk writes")
	}
	if e.mem.UnderWriteback() > 0 && e.disk.QueueDepth() == 0 {
		t.Error("writeback pages stranded with idle disk")
	}
}

func TestKswapdConsumesCPUUnderPressure(t *testing.T) {
	e := setup(t, units.GiB)
	// Hot working set makes reclaim inefficient: kswapd has to scan a
	// lot for each reclaimed page and burns CPU (Figure 13's story).
	e.mem.FileRead(units.PagesOf(500 * units.MiB))
	e.mem.SetWorkingSet("apps", mem.WorkingSet{File: units.PagesOf(480 * units.MiB)})
	_, low, _ := e.mem.Watermarks()
	e.mem.AllocAnon(e.mem.Free() - low + 50)
	maxP := 0.0
	e.clock.Every(20*time.Millisecond, func() {
		if p := e.mem.Pressure(); p > maxP {
			maxP = p
		}
	})
	e.clock.RunUntil(3 * time.Second)
	if cpu := e.kswd.Thread().CPUTime(); cpu < 10*time.Millisecond {
		t.Errorf("kswapd CPU = %v under sustained pressure, want >10ms", cpu)
	}
	if maxP < 30 {
		t.Errorf("peak pressure = %v with a hot working set, want elevated", maxP)
	}
}

func TestDirectReclaimFreesPages(t *testing.T) {
	e := setup(t, units.GiB)
	e.mem.FileRead(units.PagesOf(500 * units.MiB))
	app := e.sch.Spawn("main", "app", sched.ClassFair, 0)
	var freed units.Pages
	done := false
	DirectReclaim(app, e.mem, e.disk, 1000, func(f units.Pages) {
		freed = f
		done = true
	})
	e.clock.RunUntil(time.Second)
	if !done {
		t.Fatal("direct reclaim never completed")
	}
	if freed < 1000 {
		t.Errorf("freed %d pages, want >= 1000", freed)
	}
}

func TestDirectReclaimBlocksOnWriteback(t *testing.T) {
	e := setup(t, units.GiB)
	e.mem.FileRead(units.PagesOf(400 * units.MiB))
	e.mem.MarkDirty(units.PagesOf(400 * units.MiB))
	app := e.sch.Spawn("main", "app", sched.ClassFair, 0)
	done := false
	DirectReclaim(app, e.mem, e.disk, 500, func(units.Pages) { done = true })
	e.clock.RunUntil(5 * time.Second)
	e.tr.Finish(e.clock.Now())
	if !done {
		t.Fatal("direct reclaim never completed")
	}
	if d := e.tr.TimeInState(trace.ByProcess("app"), trace.UninterruptibleSleep); d == 0 {
		t.Error("direct reclaim of dirty pages should block the caller in D state")
	}
}

func TestDirectReclaimGivesUpEventually(t *testing.T) {
	clock := simclock.New(1)
	tr := trace.New(0)
	s := sched.New(clock, sched.Config{CoreSpeeds: []float64{1}, Tracer: tr})
	// No zRAM: anon is unreclaimable; no file cache at all.
	m := mem.New(clock, mem.Config{Total: 256 * units.MiB, KernelReserve: 32 * units.MiB})
	d := blockio.New(clock, s, blockio.Config{})
	m.AllocAnon(m.Free()) // all anon, nothing reclaimable
	app := s.Spawn("main", "app", sched.ClassFair, 0)
	done := false
	var freed units.Pages
	DirectReclaim(app, m, d, 10000, func(f units.Pages) { done, freed = true, f })
	clock.RunUntil(10 * time.Second)
	if !done {
		t.Fatal("direct reclaim spun forever with nothing reclaimable")
	}
	if freed >= 10000 {
		t.Errorf("freed %d from an unreclaimable heap", freed)
	}
}

func TestReclaimProgressSlowsWithCPUContention(t *testing.T) {
	// With CPU hogs competing, kswapd restores the watermark more
	// slowly than on an idle system.
	restoreTime := func(hogs int) time.Duration {
		clock := simclock.New(1)
		tr := trace.New(0)
		s := sched.New(clock, sched.Config{CoreSpeeds: []float64{1}, Tracer: tr})
		m := mem.New(clock, mem.Config{Total: units.GiB, KernelReserve: 100 * units.MiB, ZRAMMax: 256 * units.MiB})
		d := blockio.New(clock, s, blockio.Config{})
		New(clock, s, m, d, Config{})
		for i := 0; i < hogs; i++ {
			h := s.Spawn("hog", "hog", sched.ClassFair, 0)
			h.Enqueue(time.Hour, nil)
		}
		m.FileRead(units.PagesOf(600 * units.MiB))
		_, low, _ := m.Watermarks()
		m.AllocAnon(m.Free() - low + 100)
		for step := time.Duration(0); step < 30*time.Second; step += 100 * time.Millisecond {
			clock.RunUntil(step)
			if m.AboveHigh() {
				return step
			}
		}
		return 30 * time.Second
	}
	idle := restoreTime(0)
	contended := restoreTime(3)
	if contended <= idle {
		t.Errorf("contended restore (%v) should be slower than idle (%v)", contended, idle)
	}
}
