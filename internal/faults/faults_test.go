package faults

import (
	"reflect"
	"testing"
	"time"

	"coalqoe/internal/device"
	"coalqoe/internal/netem"
	"coalqoe/internal/units"
)

func TestWindowsDeterministic(t *testing.T) {
	for _, sp := range Plans() {
		a := sp.Windows(42, 3*time.Minute)
		b := sp.Windows(42, 3*time.Minute)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different schedules", sp.Name)
		}
		if len(a) == 0 {
			t.Errorf("%s: empty schedule over 3 minutes", sp.Name)
		}
		c := sp.Windows(43, 3*time.Minute)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds produced identical schedules", sp.Name)
		}
	}
}

func TestWindowsSortedAndClipped(t *testing.T) {
	horizon := 2 * time.Minute
	for _, sp := range Plans() {
		ws := sp.Windows(7, horizon)
		for i, w := range ws {
			if i > 0 && w.Start < ws[i-1].Start {
				t.Fatalf("%s: windows out of order at %d", sp.Name, i)
			}
			if w.Start < 0 || w.Start >= horizon {
				t.Errorf("%s: window starts outside horizon: %v", sp.Name, w.Start)
			}
			if w.End() > horizon {
				t.Errorf("%s: window overruns horizon: %v > %v", sp.Name, w.End(), horizon)
			}
			if w.Duration <= 0 {
				t.Errorf("%s: non-positive window duration", sp.Name)
			}
		}
	}
}

func TestWindowsSeedLanesIndependent(t *testing.T) {
	// Disabling one kind must not shift another kind's schedule: each
	// kind draws from its own lane.
	full := Mixed()
	noIO := full
	noIO.IOStallEvery = 0
	pick := func(ws []Window, k Kind) []Window {
		var out []Window
		for _, w := range ws {
			if w.Kind == k {
				out = append(out, w)
			}
		}
		return out
	}
	a := pick(full.Windows(9, 5*time.Minute), NetOutage)
	b := pick(noIO.Windows(9, 5*time.Minute), NetOutage)
	if !reflect.DeepEqual(a, b) {
		t.Error("disabling io_stall shifted the net_outage lane")
	}
}

func TestLookup(t *testing.T) {
	sp, err := Lookup("memstorm")
	if err != nil || sp.Name != "memstorm" {
		t.Fatalf("Lookup(memstorm) = %+v, %v", sp, err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("Lookup(nope) should fail")
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		NetOutage: "net_outage", NetLoss: "net_loss",
		IOStall: "io_stall", MemSpike: "mem_spike", Kind(99): "kind(99)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestInjectorDrivesLinkAndDisk(t *testing.T) {
	dev := device.New(1, device.Nokia1, device.Options{Telemetry: true})
	link := netem.LAN(dev.Clock)
	inj := Attach(dev, link, []Window{
		{Kind: NetLoss, Start: 1 * time.Second, Duration: 2 * time.Second, Severity: 0.3},
		{Kind: NetLoss, Start: 2 * time.Second, Duration: 3 * time.Second, Severity: 0.5},
		{Kind: IOStall, Start: 1 * time.Second, Duration: 4 * time.Second, Severity: 6},
		{Kind: NetOutage, Start: 7 * time.Second, Duration: 1 * time.Second},
	})
	if inj.FaultActive() {
		t.Fatal("no window open yet")
	}
	dev.Settle(1500 * time.Millisecond) // t=1.5s: loss 0.3, stall 6x
	if !inj.FaultActive() {
		t.Fatal("windows open at 1.5s")
	}
	if link.Loss() != 0.3 {
		t.Errorf("loss = %v, want 0.3", link.Loss())
	}
	if dev.Disk.SlowFactor() != 6 {
		t.Errorf("slow factor = %v, want 6", dev.Disk.SlowFactor())
	}
	dev.Settle(1 * time.Second) // t=2.5s: overlapping loss, strongest wins
	if link.Loss() != 0.5 {
		t.Errorf("overlapping loss = %v, want 0.5", link.Loss())
	}
	dev.Settle(1 * time.Second) // t=3.5s: first loss window closed
	if link.Loss() != 0.5 {
		t.Errorf("loss after first window = %v, want 0.5", link.Loss())
	}
	dev.Settle(2 * time.Second) // t=5.5s: loss clear, stall clear at 5s
	if link.Loss() != 0 {
		t.Errorf("loss = %v, want 0", link.Loss())
	}
	if dev.Disk.SlowFactor() != 1 {
		t.Errorf("slow factor = %v, want restored to 1", dev.Disk.SlowFactor())
	}
	dev.Settle(2 * time.Second) // t=7.5s: outage open
	if !link.Down() {
		t.Error("link should be down during the outage window")
	}
	if !inj.FaultActive() {
		t.Error("outage window should report active")
	}
	dev.Settle(1 * time.Second) // t=8.5s
	if link.Down() {
		t.Error("link should be back up")
	}
	if inj.FaultActive() {
		t.Error("all windows closed")
	}
}

func TestInjectorMemSpikeSpawnsAndExits(t *testing.T) {
	dev := device.New(1, device.Nokia1, device.Options{})
	Attach(dev, nil, []Window{
		{Kind: MemSpike, Start: time.Second, Duration: 10 * time.Second,
			Severity: float64(64 * units.MiB)},
	})
	dev.Settle(4 * time.Second)
	p := dev.Table.Find("memspike01")
	if p == nil || p.Dead() {
		t.Fatal("spike process should be alive mid-window")
	}
	dev.Settle(10 * time.Second)
	if !p.Dead() {
		t.Error("spike process should have exited after its hold")
	}
}

func TestInjectorTelemetry(t *testing.T) {
	dev := device.New(1, device.Nokia1, device.Options{Telemetry: true})
	link := netem.LAN(dev.Clock)
	inj := Attach(dev, link, []Window{
		{Kind: NetLoss, Start: time.Second, Duration: time.Second, Severity: 0.2},
		{Kind: NetLoss, Start: 3 * time.Second, Duration: time.Second, Severity: 0.2},
	})
	dev.Settle(5 * time.Second)
	if got := inj.tmKind[NetLoss].Value(); got != 2 {
		t.Errorf("windows_net_loss = %d, want 2", got)
	}
	if got := inj.tmActive.Value(); got != 0 {
		t.Errorf("active_windows gauge = %v, want 0 after close", got)
	}
	// Windows reports the absolute schedule.
	ws := inj.Windows()
	if len(ws) != 2 || ws[0].Start != time.Second {
		t.Errorf("Windows() = %+v", ws)
	}
}
