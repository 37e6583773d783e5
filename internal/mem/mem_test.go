package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"coalqoe/internal/simclock"
	"coalqoe/internal/units"
)

func newMem(t *testing.T) (*simclock.Clock, *Memory) {
	t.Helper()
	clock := simclock.New(1)
	m := New(clock, Config{
		Total:         1 * units.GiB,
		KernelReserve: 200 * units.MiB,
		ZRAMMax:       256 * units.MiB,
	})
	return clock, m
}

func TestInitialState(t *testing.T) {
	_, m := newMem(t)
	if m.Total() != units.PagesOf(units.GiB) {
		t.Errorf("Total = %d pages", m.Total())
	}
	wantFree := units.PagesOf(units.GiB) - units.PagesOf(200*units.MiB)
	if m.Free() != wantFree {
		t.Errorf("Free = %d, want %d", m.Free(), wantFree)
	}
	if m.Pressure() != 0 {
		t.Errorf("initial Pressure = %v, want 0", m.Pressure())
	}
	min, low, high := m.Watermarks()
	if !(min < low && low < high) {
		t.Errorf("watermarks not ordered: %d %d %d", min, low, high)
	}
}

func TestAllocFreeRoundTrip(t *testing.T) {
	_, m := newMem(t)
	before := m.Free()
	out := m.AllocAnon(units.PagesOf(100 * units.MiB))
	if out.NeedDirectReclaim != 0 {
		t.Fatalf("unexpected direct reclaim for small alloc: %+v", out)
	}
	if m.Anon() != out.Granted {
		t.Errorf("Anon = %d, want %d", m.Anon(), out.Granted)
	}
	m.FreeAnon(out.Granted)
	if m.Free() != before {
		t.Errorf("Free = %d after round trip, want %d", m.Free(), before)
	}
}

func TestAllocHitsDirectReclaim(t *testing.T) {
	_, m := newMem(t)
	// Exhaust memory down to the min watermark.
	out := m.AllocAnon(m.Free())
	if out.NeedDirectReclaim == 0 {
		t.Fatal("allocating all free memory should need direct reclaim")
	}
	min, _, _ := m.Watermarks()
	if m.Free() != min {
		t.Errorf("Free = %d after blocked alloc, want min watermark %d", m.Free(), min)
	}
	if m.DirectReclaims != 1 {
		t.Errorf("DirectReclaims = %d, want 1", m.DirectReclaims)
	}
}

func TestFileReadAndUtilization(t *testing.T) {
	_, m := newMem(t)
	got := m.FileRead(units.PagesOf(300 * units.MiB))
	if got != units.PagesOf(300*units.MiB) {
		t.Fatalf("FileRead granted %d pages", got)
	}
	// Cached pages still count as available (free + cached).
	if m.Available() != m.Free()+m.FileClean() {
		t.Error("Available != free + cached")
	}
	// Utilization counts kernel reserve only (file cache is available).
	u := m.Utilization()
	want := float64(units.PagesOf(200*units.MiB)) / float64(m.Total())
	if u < want-0.01 || u > want+0.01 {
		t.Errorf("Utilization = %v, want ~%v", u, want)
	}
}

func TestFileReadTruncatedNearMin(t *testing.T) {
	_, m := newMem(t)
	m.AllocAnon(m.Free() - m.wmMin - 100)
	got := m.FileRead(1000)
	if got != 100 {
		t.Errorf("FileRead near min granted %d, want 100", got)
	}
}

func TestScanBatchColdCleanDrops(t *testing.T) {
	clock, m := newMem(t)
	_ = clock
	m.FileRead(units.PagesOf(300 * units.MiB))
	// No working sets: everything is cold, so reclaim is ~100%.
	res := m.ScanBatch(1000)
	if res.Scanned != 1000 {
		t.Errorf("Scanned = %d", res.Scanned)
	}
	if res.ReclaimedClean != 1000 {
		t.Errorf("ReclaimedClean = %d, want 1000 (all cold clean)", res.ReclaimedClean)
	}
	if m.Pressure() > 1 {
		t.Errorf("Pressure = %v after perfectly efficient scan, want ~0", m.Pressure())
	}
}

func TestScanBatchHotPagesResist(t *testing.T) {
	_, m := newMem(t)
	m.FileRead(units.PagesOf(100 * units.MiB))
	// The whole cache is someone's working set.
	m.SetWorkingSet("app", WorkingSet{File: units.PagesOf(100 * units.MiB)})
	res := m.ScanBatch(1000)
	// Only hotFileReclaimProb (35%) of hot file pages reclaim.
	if res.ReclaimedClean < 250 || res.ReclaimedClean > 450 {
		t.Errorf("ReclaimedClean = %d, want ~350", res.ReclaimedClean)
	}
	if p := m.Pressure(); p < 50 {
		t.Errorf("Pressure = %v, want elevated (hot pages resist reclaim)", p)
	}
	if m.TotalRefaults == 0 {
		t.Error("evicting hot pages should record refaults")
	}
	// A fully hot *anonymous* pool resists much harder: P approaches
	// the 95+ regime where lmkd may kill foreground apps (§2).
	clock2 := simclock.New(2)
	m2 := New(clock2, Config{Total: units.GiB, KernelReserve: 100 * units.MiB, ZRAMMax: 256 * units.MiB})
	m2.AllocAnon(units.PagesOf(200 * units.MiB))
	m2.SetWorkingSet("app", WorkingSet{Anon: units.PagesOf(200 * units.MiB)})
	m2.ScanBatch(1000)
	if p := m2.Pressure(); p < 90 {
		t.Errorf("anon pool pressure = %v, want >= 90", p)
	}
}

func TestScanBatchDirtyQueuesWriteback(t *testing.T) {
	_, m := newMem(t)
	m.FileRead(units.PagesOf(100 * units.MiB))
	m.MarkDirty(units.PagesOf(100 * units.MiB))
	res := m.ScanBatch(500)
	if res.DirtyQueued == 0 {
		t.Fatal("no dirty pages queued")
	}
	if res.FreedNow != 0 {
		t.Errorf("dirty reclaim freed %d pages immediately", res.FreedNow)
	}
	wb := m.UnderWriteback()
	free := m.Free()
	m.CompleteWriteback(res.DirtyQueued)
	if m.UnderWriteback() != wb-res.DirtyQueued {
		t.Error("writeback pool not drained")
	}
	if m.Free() != free+res.DirtyQueued {
		t.Error("completed writeback did not free pages")
	}
}

func TestScanBatchAnonCompresses(t *testing.T) {
	_, m := newMem(t)
	m.AllocAnon(units.PagesOf(400 * units.MiB))
	freeBefore := m.Free()
	res := m.ScanBatch(2800)
	if res.AnonCompressed == 0 {
		t.Fatal("no anon pages compressed")
	}
	if m.ZRAMStored() != res.AnonCompressed {
		t.Errorf("ZRAMStored = %d, want %d", m.ZRAMStored(), res.AnonCompressed)
	}
	// Compression frees (1 - 1/ratio) of the pages.
	wantGain := units.Pages(float64(res.AnonCompressed) * (1 - 1/2.8))
	gain := m.Free() - freeBefore
	if gain < wantGain-5 || gain > wantGain+5 {
		t.Errorf("free gain = %d, want ~%d", gain, wantGain)
	}
}

func TestZRAMCapLimitsCompression(t *testing.T) {
	clock := simclock.New(1)
	m := New(clock, Config{
		Total:         1 * units.GiB,
		KernelReserve: 100 * units.MiB,
		ZRAMMax:       units.PageSize * 100, // tiny zram
	})
	m.AllocAnon(units.PagesOf(500 * units.MiB))
	res := m.ScanBatch(10000)
	if res.AnonCompressed > 280 {
		t.Errorf("compressed %d logical pages into a 100-page zram at %vx", res.AnonCompressed, zramRatio)
	}
	// Once full, further scans reclaim no anon.
	m.ScanBatch(10000)
	res3 := m.ScanBatch(10000)
	if res3.AnonCompressed != 0 {
		t.Errorf("zram over capacity: compressed %d more", res3.AnonCompressed)
	}
	if p := m.Pressure(); p < 90 {
		t.Errorf("Pressure = %v with unreclaimable anon, want >90", p)
	}
}

func TestZRAMDisabled(t *testing.T) {
	clock := simclock.New(1)
	m := New(clock, Config{Total: units.GiB, KernelReserve: 100 * units.MiB})
	m.AllocAnon(units.PagesOf(300 * units.MiB))
	res := m.ScanBatch(1000)
	if res.AnonCompressed != 0 {
		t.Errorf("compressed %d pages with zram disabled", res.AnonCompressed)
	}
}

func TestSwapInAnon(t *testing.T) {
	_, m := newMem(t)
	m.AllocAnon(units.PagesOf(400 * units.MiB))
	m.ScanBatch(5000)
	stored := m.ZRAMStored()
	if stored == 0 {
		t.Fatal("nothing compressed")
	}
	anonBefore := m.Anon()
	got := m.SwapInAnon(100)
	if got != 100 {
		t.Fatalf("SwapInAnon = %d, want 100", got)
	}
	if m.Anon() != anonBefore+100 {
		t.Error("anon not restored")
	}
	if m.ZRAMStored() != stored-100 {
		t.Error("zram not drained")
	}
	if m.SwapIns() != 100 {
		t.Errorf("SwapIns = %d", m.SwapIns())
	}
}

func TestPressureWindowDecays(t *testing.T) {
	clock, m := newMem(t)
	m.FileRead(units.PagesOf(50 * units.MiB))
	m.SetWorkingSet("app", WorkingSet{File: units.PagesOf(50 * units.MiB)})
	m.ScanBatch(1000)
	if m.Pressure() < 50 {
		t.Fatalf("Pressure = %v, want high", m.Pressure())
	}
	// Advance past the window with no scan activity.
	clock.Schedule(2*time.Second, func() {})
	clock.Run()
	if m.Pressure() != 0 {
		t.Errorf("Pressure = %v after idle window, want 0", m.Pressure())
	}
}

func TestRefaultDeficit(t *testing.T) {
	_, m := newMem(t)
	m.SetWorkingSet("app", WorkingSet{File: 1000})
	if d := m.RefaultDeficit(); d != 1 {
		t.Errorf("deficit = %v with empty cache, want 1", d)
	}
	m.FileRead(500)
	if d := m.RefaultDeficit(); d != 0.5 {
		t.Errorf("deficit = %v, want 0.5", d)
	}
	m.FileRead(500)
	if d := m.RefaultDeficit(); d != 0 {
		t.Errorf("deficit = %v, want 0", d)
	}
	m.RemoveWorkingSet("app")
	if d := m.RefaultDeficit(); d != 0 {
		t.Errorf("deficit = %v with no working sets, want 0", d)
	}
}

func TestFreeAnonSpillsToZRAM(t *testing.T) {
	_, m := newMem(t)
	m.AllocAnon(units.PagesOf(300 * units.MiB))
	m.ScanBatch(20000) // compress a lot
	stored := m.ZRAMStored()
	if stored == 0 {
		t.Fatal("nothing compressed")
	}
	// Free more than resident anon: the remainder comes out of zRAM.
	resident := m.Anon()
	m.FreeAnon(resident + 500)
	if m.Anon() != 0 {
		t.Errorf("Anon = %d, want 0", m.Anon())
	}
	if m.ZRAMStored() != stored-500 {
		t.Errorf("ZRAMStored = %d, want %d", m.ZRAMStored(), stored-500)
	}
}

// Property: the page-accounting invariant holds under arbitrary
// operation sequences (the internal check() would panic otherwise).
func TestAccountingInvariantProperty(t *testing.T) {
	f := func(ops []uint8, amounts []uint16) bool {
		clock := simclock.New(3)
		m := New(clock, Config{
			Total:         256 * units.MiB,
			KernelReserve: 32 * units.MiB,
			ZRAMMax:       64 * units.MiB,
		})
		for i, op := range ops {
			var amt units.Pages = 64
			if i < len(amounts) {
				amt = units.Pages(amounts[i]%4096) + 1
			}
			switch op % 8 {
			case 0:
				m.AllocAnon(amt)
			case 1:
				m.FreeAnon(amt)
			case 2:
				m.FileRead(amt)
			case 3:
				m.MarkDirty(amt)
			case 4:
				m.ScanBatch(amt)
			case 5:
				m.CompleteWriteback(amt)
			case 6:
				m.SwapInAnon(amt)
			case 7:
				m.DropFileClean(amt)
			}
			if m.Free() < 0 || m.Anon() < 0 || m.FileClean() < 0 || m.FileDirty() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPressureFormulaMatchesPaper(t *testing.T) {
	// P = (1 - R/S) * 100: with 1000 scanned and 250 reclaimed, P = 75.
	clock, m := newMem(t)
	_ = clock
	m.noteScan(1000, 250)
	if p := m.Pressure(); p != 75 {
		t.Errorf("P = %v, want 75", p)
	}
}

func TestAnonCompressedFraction(t *testing.T) {
	_, m := newMem(t)
	if m.AnonCompressedFraction() != 0 {
		t.Error("fraction should be 0 with no anon")
	}
	m.AllocAnon(1000)
	m.ScanBatch(500)
	f := m.AnonCompressedFraction()
	if f <= 0 || f >= 1 {
		t.Errorf("fraction = %v, want in (0,1)", f)
	}
}

func TestNewPanicsOnBadReserve(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic when reserve >= total")
		}
	}()
	New(simclock.New(1), Config{Total: units.MiB, KernelReserve: 2 * units.MiB})
}

func TestBeginFlushAndCompleteClean(t *testing.T) {
	_, m := newMem(t)
	m.FileRead(units.PagesOf(100 * units.MiB))
	m.MarkDirty(units.PagesOf(40 * units.MiB))
	dirty := m.FileDirty()
	got := m.BeginFlush(dirty)
	if got != dirty {
		t.Fatalf("BeginFlush = %d, want %d", got, dirty)
	}
	if m.FileDirty() != 0 || m.UnderWriteback() != dirty {
		t.Error("flush did not move pages to writeback")
	}
	clean := m.FileClean()
	m.CompleteFlushClean(dirty)
	if m.FileClean() != clean+dirty {
		t.Error("flushed pages did not return to the clean cache")
	}
	if m.UnderWriteback() != 0 {
		t.Error("writeback pool not drained")
	}
}

func TestFreeAnonProportional(t *testing.T) {
	_, m := newMem(t)
	m.AllocAnon(units.PagesOf(300 * units.MiB))
	m.ScanBatch(30000) // compress a chunk
	stored := m.ZRAMStored()
	if stored == 0 {
		t.Skip("nothing compressed")
	}
	anon := m.Anon()
	frac := m.AnonCompressedFraction()
	m.FreeAnonProportional(1000)
	wantZram := stored - units.Pages(1000*frac)
	if diff := m.ZRAMStored() - wantZram; diff < -5 || diff > 5 {
		t.Errorf("ZRAMStored = %d, want ~%d", m.ZRAMStored(), wantZram)
	}
	if m.Anon() >= anon {
		t.Error("resident anon did not shrink")
	}
}

func TestNoSwapSkipsAnonLRU(t *testing.T) {
	clock := simclock.New(1)
	m := New(clock, Config{Total: units.GiB, KernelReserve: 100 * units.MiB}) // no zram
	m.AllocAnon(units.PagesOf(400 * units.MiB))
	m.FileRead(units.PagesOf(50 * units.MiB))
	res := m.ScanBatch(5000)
	if res.AnonCompressed != 0 {
		t.Error("anon reclaimed without swap")
	}
	// Scanned must only count the file pool: with 12.8k file pages all
	// cold, the 5000-page scan hits only file pages and reclaims them.
	if res.ReclaimedClean != res.Scanned {
		t.Errorf("scanned %d but reclaimed %d: anon LRU was scanned without swap",
			res.Scanned, res.ReclaimedClean)
	}
	// P stays low: the kernel is not wasting scans on unswappable anon.
	if p := m.Pressure(); p > 10 {
		t.Errorf("P = %v for a no-swap device with a reclaimable cache", p)
	}
}

func TestWatermarkOrdering(t *testing.T) {
	_, m := newMem(t)
	min, low, high := m.Watermarks()
	if !(min > 0 && min < low && low < high && high < m.Total()) {
		t.Errorf("watermarks: min=%d low=%d high=%d total=%d", min, low, high, m.Total())
	}
	if !m.AboveHigh() {
		t.Error("fresh memory should be above the high watermark")
	}
}

// TestPressureMergedWindowMatchesBruteForce drives noteScan with random
// same-instant bursts and checks Pressure against a brute-force sum over
// every raw sample still inside the window. Reads land exactly on the
// trim boundary (a sample pressureWindow old still counts, one
// nanosecond older does not), and idle gaps drain the window fully
// before it refills. The merged window must also hold one entry per
// live instant.
func TestPressureMergedWindowMatchesBruteForce(t *testing.T) {
	type sample struct {
		at                 time.Duration
		scanned, reclaimed units.Pages
	}
	for seed := int64(1); seed <= 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		clock, m := newMem(t)
		var raw []sample
		check := func(what string) {
			t.Helper()
			now := clock.Now()
			var s, rec units.Pages
			instants := map[time.Duration]bool{}
			for _, x := range raw {
				if x.at >= now-pressureWindow {
					s += x.scanned
					rec += x.reclaimed
					instants[x.at] = true
				}
			}
			want := 0.0
			if s != 0 {
				want = max(0, (1-float64(rec)/float64(s))*100)
			}
			if got := m.Pressure(); got != want {
				t.Fatalf("seed %d, %s at %v: Pressure = %v, brute force %v", seed, what, now, got, want)
			}
			if live := len(m.window) - m.winHead; live != len(instants) {
				t.Fatalf("seed %d, %s at %v: %d window entries for %d live instants", seed, what, now, live, len(instants))
			}
		}
		for step := 0; step < 300; step++ {
			var next time.Duration
			switch k := r.Intn(10); {
			case k < 4 && len(raw) > 0:
				// Exactly on, or one nanosecond past, the trim boundary of
				// a recorded sample.
				at := raw[r.Intn(len(raw))].at + pressureWindow + time.Duration(r.Intn(2))
				next = max(clock.Now(), at)
			case k == 4:
				// An idle gap that drains the whole window.
				next = clock.Now() + pressureWindow + time.Duration(1+r.Intn(int(time.Second)))
			case k == 5:
				next = clock.Now() // another burst at the same instant
			default:
				next = clock.Now() + time.Duration(1+r.Intn(300))*time.Millisecond
			}
			clock.RunUntil(next)
			if r.Intn(3) == 0 {
				check("read before burst")
			}
			for n := r.Intn(6); n > 0; n-- {
				scanned := units.Pages(r.Intn(256))
				reclaimed := units.Pages(r.Int63n(int64(scanned) + 1))
				m.noteScan(scanned, reclaimed)
				raw = append(raw, sample{clock.Now(), scanned, reclaimed})
			}
			check("read after burst")
		}
	}
}
