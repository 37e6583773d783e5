package device

import (
	"testing"
	"time"

	"coalqoe/internal/proc"
	"coalqoe/internal/units"
)

func TestBootSettles(t *testing.T) {
	for _, p := range []Profile{Nokia1, Nexus5, Nexus6P} {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			d := New(1, p, Options{})
			d.Settle(5 * time.Second)
			if d.Table.Level() != proc.Normal {
				t.Errorf("level = %v after boot, want Normal", d.Table.Level())
			}
			if got := d.Table.CachedCount(); got != p.CachedApps {
				t.Errorf("cached count = %d, want %d", got, p.CachedApps)
			}
			if d.Lmkd.KillCount != 0 {
				t.Errorf("lmkd killed %d processes during boot", d.Lmkd.KillCount)
			}
			if d.SurfaceFlinger == nil {
				t.Fatal("no SurfaceFlinger thread")
			}
			// Boot memory must be sane: anon covers system + cached apps.
			wantAnon := units.PagesOf(p.SystemAnon) + units.Pages(p.CachedApps)*units.PagesOf(p.CachedAppAnon)
			got := d.Mem.Anon() + d.Mem.ZRAMStored()
			if got < wantAnon*9/10 || got > wantAnon*11/10 {
				t.Errorf("anon+zram = %d pages, want ~%d", got, wantAnon)
			}
		})
	}
}

func TestUtilizationOrdering(t *testing.T) {
	// Smaller devices boot into higher memory utilization.
	var utils []float64
	for _, p := range []Profile{Nokia1, Nexus5, Nexus6P} {
		d := New(1, p, Options{})
		d.Settle(5 * time.Second)
		utils = append(utils, d.Mem.Utilization())
	}
	if !(utils[0] > utils[1] && utils[1] > utils[2]) {
		t.Errorf("utilization not decreasing with RAM: %v", utils)
	}
	// In-use devices in the study sit above 60% utilization; a freshly
	// booted device with idle cached apps sits somewhat below that.
	if utils[0] < 0.4 {
		t.Errorf("Nokia 1 boot utilization = %v, want >= 0.4", utils[0])
	}
}

func TestDisableZRAM(t *testing.T) {
	d := New(1, Nokia1, Options{DisableZRAM: true})
	d.Settle(time.Second)
	d.Mem.AllocAnon(1000)
	d.Mem.ScanBatch(5000)
	if d.Mem.ZRAMStored() != 0 {
		t.Error("zRAM stored pages despite DisableZRAM")
	}
}

func TestGenericProfileScales(t *testing.T) {
	small := Generic("g1", 1*units.GiB, 4, 1.0)
	big := Generic("g8", 8*units.GiB, 8, 2.5)
	if small.Thresholds.Critical >= big.Thresholds.Critical {
		t.Error("bigger device should tolerate more cached apps before Critical")
	}
	if small.CachedApps >= big.CachedApps {
		t.Error("bigger device should cache more apps")
	}
	d := New(7, big, Options{})
	d.Settle(2 * time.Second)
	if d.Mem.Utilization() > 0.6 {
		t.Errorf("8 GiB device boots at %v utilization, want low", d.Mem.Utilization())
	}
}

func TestDeterministicBoot(t *testing.T) {
	run := func() (units.Pages, float64) {
		d := New(42, Nokia1, Options{})
		d.Settle(3 * time.Second)
		return d.Mem.Free(), d.Sched.Utilization()
	}
	f1, u1 := run()
	f2, u2 := run()
	if f1 != f2 || u1 != u2 {
		t.Errorf("boot diverged across identical seeds: free %d vs %d, util %v vs %v", f1, f2, u1, u2)
	}
}

func TestString(t *testing.T) {
	d := New(1, Nokia1, Options{})
	if d.String() == "" {
		t.Error("empty String()")
	}
}

func TestRecacheRestoresApps(t *testing.T) {
	d := New(9, Nokia1, Options{})
	d.Settle(2 * time.Second)
	var cached *proc.Process
	for _, p := range d.Table.Processes() {
		if p.Cached {
			cached = p
			break
		}
	}
	d.Table.Kill(cached, "test")
	before := d.Table.CachedCount()
	d.Settle(2 * time.Minute) // plenty of free memory: respawn fires
	if got := d.Table.CachedCount(); got <= before {
		t.Errorf("cached count stayed at %d: killed app never respawned", got)
	}
}

func TestSchedTickOption(t *testing.T) {
	d := New(3, Nokia1, Options{SchedTick: 10 * time.Millisecond})
	if got := d.Sched.Tick(); got != 10*time.Millisecond {
		t.Errorf("Tick = %v", got)
	}
}

func TestGenericVendorThresholdSpread(t *testing.T) {
	a := Generic("vendorA", 2*units.GiB, 4, 1.5)
	b := Generic("vendorB", 2*units.GiB, 4, 1.5)
	if a.AvailSignals == b.AvailSignals {
		t.Error("identical vendor thresholds for different models; Figure 5 expects spread")
	}
	if a.AvailSignals.Moderate <= a.AvailSignals.Low || a.AvailSignals.Low <= a.AvailSignals.Critical {
		t.Errorf("threshold ordering broken: %+v", a.AvailSignals)
	}
}
