package blockio

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"coalqoe/internal/telemetry"
	"coalqoe/internal/units"
)

// Tests for the recycled request records: a record goes back to the
// disk's free list as soon as mmcqd starts its request, so these check
// that no request ever sees another's pages, cost or callback.

// TestReadFromOnDoneKeepsItsOwnRequest issues a read from inside
// another request's onDone, which reuses the outer request's record.
// The inner read must complete exactly as the same read submitted at
// the same instant on a fresh disk, and the outer callback must not
// fire again.
func TestReadFromOnDoneKeepsItsOwnRequest(t *testing.T) {
	clock, _, _, d := setup(t, 2)
	var outerAt, innerAt time.Duration
	outerFires := 0
	d.Read(100, func() {
		outerFires++
		outerAt = clock.Now()
		d.Read(7, func() { innerAt = clock.Now() })
	})
	clock.RunUntil(time.Second)
	if outerFires != 1 || innerAt == 0 {
		t.Fatalf("outer fired %d times, inner done at %v", outerFires, innerAt)
	}

	refClock, _, _, ref := setup(t, 2)
	var refAt time.Duration
	refClock.At(outerAt, func() { ref.Read(7, func() { refAt = refClock.Now() }) })
	refClock.RunUntil(time.Second)
	if innerAt-outerAt != refAt-outerAt {
		t.Errorf("inner read latency %v, same read on a fresh disk %v", innerAt-outerAt, refAt-outerAt)
	}
	st := d.Stats()
	if st.PagesRead != 107 || st.DeviceBusy != 2*requestOverhead+107*readPerPage {
		t.Errorf("stats = %+v, want 107 pages read and their service time", st)
	}
	if len(d.free) != 1 {
		t.Errorf("free list holds %d records after one request at a time, want 1", len(d.free))
	}
}

// TestFreeListBoundedByPeakInFlight submits a burst, then 1000 requests
// one after another, each from the previous one's callback: the free
// list never holds more records than requests were ever in flight.
func TestFreeListBoundedByPeakInFlight(t *testing.T) {
	clock, _, _, d := setup(t, 2)
	inFlight, peak := 0, 0
	submit := func(pages units.Pages, then func()) {
		inFlight++
		peak = max(peak, inFlight)
		d.Read(pages, func() {
			inFlight--
			if then != nil {
				then()
			}
		})
	}
	for i := 0; i < 12; i++ {
		submit(units.Pages(10*i), nil)
	}
	left := 1000
	var chain func()
	chain = func() {
		if left--; left > 0 {
			submit(units.Pages(left%50), chain)
		}
	}
	clock.Schedule(time.Second, func() { submit(1, chain) })
	clock.RunUntil(time.Minute)
	if left != 0 || inFlight != 0 {
		t.Fatalf("%d chained requests left, %d in flight", left, inFlight)
	}
	if got := d.Stats().ReadRequests; got != 12+1000 {
		t.Fatalf("%d read requests, want %d", got, 12+1000)
	}
	if len(d.free) > peak {
		t.Errorf("free list holds %d records, peak in flight was %d", len(d.free), peak)
	}
}

// reuseScenario drives a disk with a seeded mix of reads and writes:
// bursts, empty and negative sizes, nil callbacks, reads issued from
// callbacks, and a slow-device window. It summarises the disk's Stats,
// its latency histogram and every callback's completion time.
func reuseScenario(t *testing.T) string {
	clock, _, _, d := setup(t, 2)
	reg := telemetry.NewRegistry()
	d.Instrument(reg)
	r := rand.New(rand.NewSource(7))
	done := fnv.New64a()
	callbacks := 0
	record := func() {
		callbacks++
		fmt.Fprint(done, clock.Now(), ";")
	}
	for i := 0; i < 400; i++ {
		at := time.Duration(r.Intn(3000)) * time.Millisecond
		pages := units.Pages(r.Intn(300) - 10)
		write := r.Intn(3) == 0
		var onDone func()
		switch r.Intn(3) {
		case 1:
			onDone = record
		case 2:
			follow := units.Pages(r.Intn(40))
			onDone = func() { record(); d.Read(follow, record) }
		}
		clock.At(at, func() {
			if write {
				d.Write(pages, onDone)
			} else {
				d.Read(pages, onDone)
			}
		})
	}
	clock.At(500*time.Millisecond, func() { d.SetSlowFactor(3) })
	clock.At(900*time.Millisecond, func() { d.SetSlowFactor(1) })
	clock.RunUntil(time.Minute)
	h := reg.Histogram("blockio.request_latency")
	return fmt.Sprintf("%+v hist=%d/%v/%v/%v callbacks=%d/%016x",
		d.Stats(), h.Count(), h.Sum(), h.Quantile(0.5), h.Quantile(0.99), callbacks, done.Sum64())
}

// TestReuseScenarioMatchesFreshClosures pins reuseScenario to the
// summary recorded when every request still enqueued a fresh closure.
func TestReuseScenarioMatchesFreshClosures(t *testing.T) {
	const want = "{ReadRequests:389 WriteRequests:137 PagesRead:39773 PagesWritten:19976 DeviceBusy:5.36221s PeakBacklog:2.26023s} " +
		"hist=526/11m20.69988s/2.097152s/4.194304s callbacks=380/86955f454f8929c4"
	if got := reuseScenario(t); got != want {
		t.Errorf("scenario summary\n got %s\nwant %s", got, want)
	}
}
