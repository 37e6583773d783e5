package lmkd

import (
	"testing"
	"time"

	"coalqoe/internal/blockio"
	"coalqoe/internal/kswapd"
	"coalqoe/internal/mem"
	"coalqoe/internal/proc"
	"coalqoe/internal/sched"
	"coalqoe/internal/simclock"
	"coalqoe/internal/trace"
	"coalqoe/internal/units"
)

type env struct {
	clock *simclock.Clock
	sch   *sched.Scheduler
	mem   *mem.Memory
	table *proc.Table
	lmkd  *Daemon
}

func setup(t *testing.T, total units.Bytes, cfg Config) *env {
	t.Helper()
	clock := simclock.New(1)
	tr := trace.New(0)
	s := sched.New(clock, sched.Config{CoreSpeeds: []float64{1, 1}, Tracer: tr})
	m := mem.New(clock, mem.Config{Total: total, KernelReserve: 64 * units.MiB, ZRAMMax: total / 4})
	d := blockio.New(clock, s, blockio.Config{})
	k := kswapd.New(clock, s, m, d, kswapd.Config{})
	table := proc.NewTable(clock, s, m, d, k, proc.SignalThresholds{})
	lk := New(clock, s, m, table, cfg)
	return &env{clock: clock, sch: s, mem: m, table: table, lmkd: lk}
}

// squeeze drives the memory model into a sustained high-pressure
// regime: a big hot file working set makes scans inefficient, and a
// refault pump keeps re-reading evicted hot pages (what an active app
// does), so free memory stays low and P stays high.
func squeeze(e *env, hotFile units.Bytes) {
	ws := units.PagesOf(hotFile)
	e.mem.FileRead(ws)
	e.mem.SetWorkingSet("hog", mem.WorkingSet{File: ws})
	_, low, _ := e.mem.Watermarks()
	if e.mem.Free() > low {
		e.mem.AllocAnon(e.mem.Free() - low + 200)
	}
	// Refault pump: re-read evicted hot pages, as an active app would.
	e.clock.Every(10*time.Millisecond, func() {
		if d := e.mem.RefaultDeficit(); d > 0 {
			e.mem.FileRead(units.Pages(float64(ws) * d))
		}
	})
	// Balloon: keep allocating like the paper's MP Simulator app.
	e.clock.Every(25*time.Millisecond, func() {
		e.mem.AllocAnon(units.PagesOf(4 * units.MiB))
	})
}

func TestNoKillsWithoutPressure(t *testing.T) {
	e := setup(t, units.GiB, Config{})
	for i := 0; i < 5; i++ {
		e.table.Start(proc.Spec{Name: string(rune('a' + i)), Adj: proc.AdjCached, Cached: true, AnonBytes: units.MiB})
	}
	e.clock.RunUntil(5 * time.Second)
	if e.lmkd.KillCount != 0 {
		t.Errorf("killed %d processes with no pressure", e.lmkd.KillCount)
	}
}

func TestKillsCachedUnderPressure(t *testing.T) {
	e := setup(t, units.GiB, Config{})
	for i := 0; i < 5; i++ {
		e.table.Start(proc.Spec{Name: string(rune('a' + i)), Adj: proc.AdjCached, Cached: true, AnonBytes: 20 * units.MiB})
	}
	e.clock.RunUntil(time.Second)
	squeeze(e, 700*units.MiB)
	e.clock.RunUntil(10 * time.Second)
	if e.lmkd.KillCount == 0 {
		t.Fatalf("no kills under sustained pressure (P=%v free=%d)", e.mem.Pressure(), e.mem.Free())
	}
	if e.lmkd.ForegroundKills != 0 {
		t.Errorf("killed foreground while only cached should be eligible")
	}
}

func TestForegroundEligibleAtCriticalPressure(t *testing.T) {
	e := setup(t, units.GiB, Config{})
	crashed := false
	e.table.Start(proc.Spec{Name: "video", Adj: proc.AdjForeground, AnonBytes: 50 * units.MiB,
		OnKilled: func(string) { crashed = true }})
	e.clock.RunUntil(time.Second)
	// Nothing cached to kill; a fully hot memory makes P ~100.
	squeeze(e, 800*units.MiB)
	e.clock.RunUntil(20 * time.Second)
	if !crashed {
		t.Errorf("foreground survived P=%v free=%d kills=%d",
			e.mem.Pressure(), e.mem.Free(), e.lmkd.KillCount)
	}
	if e.lmkd.ForegroundKills == 0 {
		t.Error("ForegroundKills not counted")
	}
}

func TestVictimOrder(t *testing.T) {
	e := setup(t, units.GiB, Config{})
	e.table.Start(proc.Spec{Name: "fg", Adj: proc.AdjForeground, AnonBytes: 10 * units.MiB})
	e.table.Start(proc.Spec{Name: "cachedA", Adj: proc.AdjCached + 5, Cached: true, AnonBytes: 10 * units.MiB})
	e.table.Start(proc.Spec{Name: "cachedB", Adj: proc.AdjCached, Cached: true, AnonBytes: 10 * units.MiB})
	e.clock.RunUntil(time.Second)
	squeeze(e, 700*units.MiB)
	for e.lmkd.KillCount == 0 && e.clock.Now() < 30*time.Second {
		e.clock.RunUntil(e.clock.Now() + time.Second)
	}
	kills := e.table.Kills()
	if len(kills) == 0 {
		t.Fatal("no kills")
	}
	if kills[0].Process != "cachedA" {
		t.Errorf("first victim = %s, want cachedA (highest adj)", kills[0].Process)
	}
	if fg := e.table.Find("fg"); fg == nil {
		// Foreground may eventually die at P>=95; just ensure it was
		// not the first victim.
		if kills[0].Process == "fg" {
			t.Error("foreground killed first")
		}
	}
}

func TestKillCostsCPU(t *testing.T) {
	e := setup(t, units.GiB, Config{})
	for i := 0; i < 3; i++ {
		e.table.Start(proc.Spec{Name: string(rune('a' + i)), Adj: proc.AdjCached, Cached: true, AnonBytes: 30 * units.MiB})
	}
	e.clock.RunUntil(time.Second)
	squeeze(e, 700*units.MiB)
	e.clock.RunUntil(15 * time.Second)
	if e.lmkd.KillCount == 0 {
		t.Skip("no kills materialized; covered elsewhere")
	}
	if cpu := e.lmkd.Thread().CPUTime(); cpu < 8*time.Millisecond {
		t.Errorf("lmkd CPU = %v after %d kills, want >= 8ms", cpu, e.lmkd.KillCount)
	}
}

func TestMinFreeGate(t *testing.T) {
	e := setup(t, units.GiB, Config{})
	e.table.Start(proc.Spec{Name: "bg", Adj: proc.AdjCached, Cached: true, AnonBytes: 10 * units.MiB})
	e.clock.RunUntil(time.Second)
	// High P via inefficient scans but plenty of free memory: the
	// minfree gate must block kills.
	e.mem.FileRead(units.PagesOf(100 * units.MiB))
	e.mem.SetWorkingSet("hot", mem.WorkingSet{File: units.PagesOf(100 * units.MiB)})
	e.mem.ScanBatch(5000)
	if e.mem.Pressure() < 60 {
		t.Skip("pressure did not rise")
	}
	e.clock.RunUntil(1200 * time.Millisecond)
	if e.lmkd.KillCount != 0 {
		t.Error("killed despite free memory above low watermark")
	}
}

func TestForegroundKillRequiresSustainedPressure(t *testing.T) {
	// A critical-pressure transient shorter than fgSustainPolls must
	// not kill the foreground app; sustained unreclaimable pressure
	// must.
	e := setup(t, units.GiB, Config{})
	crashed := false
	e.table.Start(proc.Spec{Name: "video", Adj: proc.AdjForeground, AnonBytes: 30 * units.MiB,
		OnKilled: func(string) { crashed = true }})
	e.clock.RunUntil(time.Second)

	// Saturate zRAM with cold anon so no reclaim headroom remains,
	// then mark everything hot: scans rotate fruitlessly. kswapd still
	// frees this first allocation, so pressure settles low.
	e.mem.AllocAnon(e.mem.Free() - 2000)
	for i := 0; i < 64 && e.mem.ZRAMPhysical() < units.PagesOf(255*units.MiB); i++ {
		e.mem.ScanBatch(20000)
	}
	e.mem.SetWorkingSet("hog", mem.WorkingSet{Anon: e.mem.Anon() + e.mem.ZRAMStored()})
	e.clock.RunUntil(2 * time.Second)
	if p := e.mem.Pressure(); p >= criticalThreshold {
		t.Fatalf("P = %v before the transient, want below %d", p, criticalThreshold)
	}

	// Transient: pin free memory below the foreground minfree gate
	// with no reclaim headroom, so every poll sees P >= 95, for 12
	// polls (1.2 s, under fgSustainPolls' 1.5 s and over the 10 polls
	// a kill would need at fgSustainPolls = 10). Then relief: enough
	// resident heap freed that the gate closes, without touching the
	// full zRAM.
	e.mem.AllocAnon(e.mem.Free() - 2000)
	e.clock.RunUntil(2*time.Second + 1250*time.Millisecond)
	if crashed {
		t.Fatal("foreground killed during a sub-threshold pressure transient")
	}
	if p, n := e.mem.Pressure(), e.lmkd.criticalPolls; p < criticalThreshold || n != 12 {
		t.Fatalf("transient: P = %v after %d critical polls, want >= %d after 12", p, n, criticalThreshold)
	}
	e.mem.FreeAnon(units.PagesOf(70 * units.MiB))
	e.clock.RunUntil(6 * time.Second)
	if crashed {
		t.Fatal("foreground killed after a sub-threshold pressure transient")
	}

	// Sustained: re-pin free memory with no reclaim headroom.
	e.mem.AllocAnon(e.mem.Free() - 2000)
	e.clock.RunUntil(20 * time.Second)
	if !crashed {
		t.Errorf("foreground survived sustained P=%v free=%d", e.mem.Pressure(), e.mem.Free())
	}
}

func TestKillCooldownSpacing(t *testing.T) {
	e := setup(t, units.GiB, Config{KillCooldown: 2 * time.Second})
	for i := 0; i < 6; i++ {
		e.table.Start(proc.Spec{Name: string(rune('a' + i)), Adj: proc.AdjCached, Cached: true, AnonBytes: 5 * units.MiB})
	}
	e.clock.RunUntil(time.Second)
	squeeze(e, 700*units.MiB)
	e.clock.RunUntil(12 * time.Second)
	kills := e.table.Kills()
	if len(kills) < 2 {
		t.Skipf("only %d kills; cooldown spacing unobservable", len(kills))
	}
	for i := 1; i < len(kills); i++ {
		if gap := kills[i].At - kills[i-1].At; gap < 2*time.Second {
			t.Errorf("kills %d and %d only %v apart, cooldown 2s", i-1, i, gap)
		}
	}
}
