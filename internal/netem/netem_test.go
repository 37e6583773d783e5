package netem

import (
	"bytes"
	"io"
	"testing"
	"time"

	"coalqoe/internal/simclock"
	"coalqoe/internal/units"
)

func TestTransferTiming(t *testing.T) {
	clock := simclock.New(1)
	l := NewLink(clock, 8*units.Mbps, 10*time.Millisecond)
	var done time.Duration
	l.Transfer(units.Bytes(1e6), func() { done = clock.Now() }) // 1MB at 1MB/s
	clock.Run()
	want := time.Second + 10*time.Millisecond
	if done != want {
		t.Errorf("done at %v, want %v", done, want)
	}
}

func TestTransfersSerialize(t *testing.T) {
	clock := simclock.New(1)
	l := NewLink(clock, 8*units.Mbps, 0)
	var first, second time.Duration
	l.Transfer(units.Bytes(1e6), func() { first = clock.Now() })
	l.Transfer(units.Bytes(1e6), func() { second = clock.Now() })
	clock.Run()
	if second != 2*time.Second || first != time.Second {
		t.Errorf("first=%v second=%v, want 1s and 2s", first, second)
	}
	if l.TotalBytes != units.Bytes(2e6) {
		t.Errorf("TotalBytes = %d", l.TotalBytes)
	}
}

func TestTransferTime(t *testing.T) {
	clock := simclock.New(1)
	l := NewLink(clock, 80*units.Mbps, 5*time.Millisecond)
	got := l.TransferTime(units.Bytes(1e7)) // 10MB at 10MB/s = 1s
	want := time.Second + 5*time.Millisecond
	if got != want {
		t.Errorf("TransferTime = %v, want %v", got, want)
	}
}

func TestSetRate(t *testing.T) {
	clock := simclock.New(1)
	l := NewLink(clock, units.Mbps, 0)
	l.SetRate(2 * units.Mbps)
	if l.Rate() != 2*units.Mbps {
		t.Errorf("Rate = %v", l.Rate())
	}
}

func TestLANIsFast(t *testing.T) {
	clock := simclock.New(1)
	l := LAN(clock)
	// A 4-second 12 Mbps segment (6 MB) must download far faster than
	// real time — the paper's non-bottleneck condition.
	if tt := l.TransferTime(6 * units.Bytes(1e6)); tt > 500*time.Millisecond {
		t.Errorf("LAN segment transfer = %v, should be well under real time", tt)
	}
}

func TestNewLinkPanicsOnZeroRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	NewLink(simclock.New(1), 0, 0)
}

func TestShaperPacesReads(t *testing.T) {
	data := make([]byte, 100_000)
	var slept time.Duration
	base := time.Unix(0, 0)
	s := NewShaper(bytes.NewReader(data), 8*units.Mbps, // 1 MB/s
		func() time.Time { return base.Add(slept) },
		func(d time.Duration) { slept += d })
	n, err := io.Copy(io.Discard, s)
	if err != nil || n != 100_000 {
		t.Fatalf("copied %d, err %v", n, err)
	}
	// 100 KB at 1 MB/s should ask for ~100ms of sleep.
	if slept < 80*time.Millisecond || slept > 150*time.Millisecond {
		t.Errorf("slept %v, want ~100ms", slept)
	}
}

func TestShaperEOF(t *testing.T) {
	s := NewShaper(bytes.NewReader(nil), units.Mbps,
		func() time.Time { return time.Unix(0, 0) },
		func(time.Duration) {})
	buf := make([]byte, 10)
	if _, err := s.Read(buf); err != io.EOF {
		t.Errorf("err = %v, want EOF", err)
	}
}

func TestLinkLossSlowsTransfers(t *testing.T) {
	clock := simclock.New(1)
	l := NewLink(clock, 8*units.Mbps, 0)
	l.SetLoss(0.5)
	if l.Loss() != 0.5 {
		t.Fatalf("Loss = %v", l.Loss())
	}
	var done time.Duration
	l.Transfer(units.Bytes(1e6), func() { done = clock.Now() }) // 1s lossless
	clock.Run()
	// Goodput halves (2s) plus at least half an RTO of retransmission
	// stall; jitter bounds the rest.
	if done < 2*time.Second+50*time.Millisecond || done > 2*time.Second+400*time.Millisecond {
		t.Errorf("lossy transfer done at %v, want ~2s + retransmission stall", done)
	}
	l.SetLoss(0)
	var clean time.Duration
	l.Transfer(units.Bytes(1e6), func() { clean = clock.Now() })
	clock.Run()
	if clean-done != time.Second {
		t.Errorf("after clearing loss, transfer took %v, want 1s", clean-done)
	}
}

func TestLinkLossClamped(t *testing.T) {
	l := NewLink(simclock.New(1), units.Mbps, 0)
	l.SetLoss(2)
	if l.Loss() != maxLoss {
		t.Errorf("Loss = %v, want clamped to %v", l.Loss(), maxLoss)
	}
	l.SetLoss(-1)
	if l.Loss() != 0 {
		t.Errorf("Loss = %v, want clamped to 0", l.Loss())
	}
}

func TestLinkOutageDefersTransfers(t *testing.T) {
	clock := simclock.New(1)
	l := NewLink(clock, 8*units.Mbps, 0)
	l.OutageFor(3 * time.Second)
	if !l.Down() {
		t.Fatal("link should be down")
	}
	var done time.Duration
	l.Transfer(units.Bytes(1e6), func() { done = clock.Now() })
	clock.Run()
	if done != 4*time.Second {
		t.Errorf("transfer during outage done at %v, want 4s (3s outage + 1s tx)", done)
	}
	if l.Down() {
		t.Error("link should be back up")
	}
}

func TestLinkOverlappingOutagesExtend(t *testing.T) {
	clock := simclock.New(1)
	l := NewLink(clock, 8*units.Mbps, 0)
	l.OutageFor(2 * time.Second)
	l.OutageFor(5 * time.Second) // extends
	l.OutageFor(time.Second)     // no-op: earlier end
	var done time.Duration
	l.Transfer(units.Bytes(1e6), func() { done = clock.Now() })
	clock.Run()
	if done != 6*time.Second {
		t.Errorf("done at %v, want 6s", done)
	}
}

func TestLinkLossDeterministic(t *testing.T) {
	run := func() time.Duration {
		clock := simclock.New(42)
		l := NewLink(clock, 8*units.Mbps, 0)
		l.SetLoss(0.3)
		var done time.Duration
		for i := 0; i < 5; i++ {
			l.Transfer(units.Bytes(1e5), func() { done = clock.Now() })
		}
		clock.Run()
		return done
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed, different outcomes: %v vs %v", a, b)
	}
}
