package blockio

import (
	"testing"
	"time"

	"coalqoe/internal/sched"
	"coalqoe/internal/simclock"
	"coalqoe/internal/telemetry"
	"coalqoe/internal/trace"
)

func setup(t *testing.T, cores int) (*simclock.Clock, *sched.Scheduler, *trace.Tracer, *Disk) {
	t.Helper()
	clock := simclock.New(1)
	tr := trace.New(0)
	speeds := make([]float64, cores)
	for i := range speeds {
		speeds[i] = 1.0
	}
	s := sched.New(clock, sched.Config{CoreSpeeds: speeds, Tracer: tr})
	d := New(clock, s, Config{})
	return clock, s, tr, d
}

func TestReadCompletes(t *testing.T) {
	clock, _, _, d := setup(t, 2)
	var done time.Duration
	d.Read(100, func() { done = clock.Now() })
	clock.RunUntil(time.Second)
	if done == 0 {
		t.Fatal("read never completed")
	}
	// mmcqd CPU (~220µs, tick-quantized) + overhead 400µs + 100*60µs.
	if done < 6400*time.Microsecond || done > 10*time.Millisecond {
		t.Errorf("read completed at %v, want ~6.5-9ms", done)
	}
	st := d.Stats()
	if st.ReadRequests != 1 || st.PagesRead != 100 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDeviceSerializesRequests(t *testing.T) {
	clock, _, _, d := setup(t, 2)
	var first, second time.Duration
	d.Read(1000, func() { first = clock.Now() })
	d.Read(1000, func() { second = clock.Now() })
	clock.RunUntil(time.Second)
	if first == 0 || second == 0 {
		t.Fatal("reads never completed")
	}
	gap := second - first
	// Second request waits for the device: gap ≈ service time of one
	// request (400µs + 1000*60µs ≈ 60.4ms).
	if gap < 50*time.Millisecond {
		t.Errorf("gap = %v, want ~60ms (device is serial)", gap)
	}
}

func TestWritesSlowerThanReads(t *testing.T) {
	clockR, _, _, dr := setup(t, 1)
	var readDone time.Duration
	dr.Read(2000, func() { readDone = clockR.Now() })
	clockR.RunUntil(time.Second)

	clockW, _, _, dw := setup(t, 1)
	var writeDone time.Duration
	dw.Write(2000, func() { writeDone = clockW.Now() })
	clockW.RunUntil(time.Second)

	if writeDone <= readDone {
		t.Errorf("write (%v) should be slower than read (%v)", writeDone, readDone)
	}
}

func TestMmcqdPreemptsFairThreads(t *testing.T) {
	clock, s, tr, d := setup(t, 1)
	video := s.Spawn("MediaCodec", "firefox", sched.ClassFair, 0)
	video.Enqueue(200*time.Millisecond, nil)
	// Issue a burst of small reads while the video thread runs.
	for i := 0; i < 50; i++ {
		i := i
		clock.Schedule(time.Duration(i)*2*time.Millisecond, func() { d.Read(8, nil) })
	}
	clock.RunUntil(500 * time.Millisecond)
	tr.Finish(clock.Now())
	ps := tr.PreemptionsBy(trace.ByName("mmcqd"), trace.ByProcess("firefox"))
	if ps.Count == 0 {
		t.Error("mmcqd never preempted the video thread on a single core")
	}
	if got := tr.TimeInState(trace.ByProcess("firefox"), trace.RunnablePreempted); got == 0 {
		t.Error("no Runnable(Preempted) time recorded for the victim")
	}
}

func TestQueueDepthGrowsUnderLoad(t *testing.T) {
	clock, _, _, d := setup(t, 2)
	for i := 0; i < 20; i++ {
		d.Write(2000, nil)
	}
	clock.RunUntil(50 * time.Millisecond)
	if d.QueueDepth() == 0 {
		t.Error("queue depth should be nonzero with 20 large writes outstanding")
	}
	clock.RunUntil(10 * time.Second)
	if d.QueueDepth() != 0 {
		t.Errorf("queue depth = %v after drain, want 0", d.QueueDepth())
	}
}

func TestNilOnDoneAllowed(t *testing.T) {
	clock, _, _, d := setup(t, 1)
	// The nil-callback requests reuse the first request's record; its
	// callback must not fire again.
	fires := 0
	d.Write(5, func() { fires++ })
	clock.RunUntil(100 * time.Millisecond)
	d.Read(10, nil)
	d.Write(10, nil)
	clock.RunUntil(time.Second) // must not panic
	st := d.Stats()
	if fires != 1 || st.ReadRequests != 1 || st.WriteRequests != 2 {
		t.Errorf("callback fired %d times, stats = %+v", fires, st)
	}
}

func TestDeviceBusyAccounting(t *testing.T) {
	clock, _, _, d := setup(t, 1)
	d.Read(1000, nil)
	clock.RunUntil(time.Second)
	want := 400*time.Microsecond + 1000*60*time.Microsecond
	if got := d.Stats().DeviceBusy; got != want {
		t.Errorf("DeviceBusy = %v, want %v", got, want)
	}
}

// Regression test for the PeakBacklog stat. Stats().QueueDepth-style
// polling cannot see a burst that queues and drains between polls; the
// disk must record the high-water backlog itself.
func TestPeakBacklogSurvivesDrain(t *testing.T) {
	clock, _, _, d := setup(t, 2)
	// A burst of back-to-back writes: the backlog behind the last
	// request is several full service times.
	for i := 0; i < 10; i++ {
		d.Write(2000, nil)
	}
	clock.RunUntil(time.Minute)
	if d.QueueDepth() != 0 {
		t.Fatalf("queue depth = %v after drain, want 0", d.QueueDepth())
	}
	st := d.Stats()
	// One 2000-page write services in ~400µs + 2000*180µs ≈ 360ms; the
	// tenth request saw ~9 of those queued ahead of it.
	single := 360 * time.Millisecond
	if st.PeakBacklog < 4*single {
		t.Errorf("PeakBacklog = %v, want >= %v (burst of 10 writes)", st.PeakBacklog, 4*single)
	}
	// The instantaneous depth is long gone; the peak must persist.
	if st.PeakBacklog <= single {
		t.Errorf("PeakBacklog = %v did not exceed a single request's service time", st.PeakBacklog)
	}
}

func TestPeakBacklogGauge(t *testing.T) {
	clock, _, _, d := setup(t, 2)
	reg := telemetry.NewRegistry()
	d.Instrument(reg)
	for i := 0; i < 10; i++ {
		d.Write(2000, nil)
	}
	clock.RunUntil(time.Minute)
	v, ok := reg.Value("blockio.peak_backlog_us")
	if !ok {
		t.Fatal("blockio.peak_backlog_us not registered")
	}
	want := float64(d.Stats().PeakBacklog / time.Microsecond)
	if v != want {
		t.Errorf("gauge = %v, stats peak = %v", v, want)
	}
	if v == 0 {
		t.Error("peak backlog gauge never rose under a write burst")
	}
}
