package cdn

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// body builds a distinguishable body of n bytes.
func body(tag byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = tag
	}
	return b
}

// get is the serial driver: every test Get in single-threaded mode.
func get(t *testing.T, c *Cache, key string, b []byte) (hit bool) {
	t.Helper()
	got, hit, err := c.Get(key, func() ([]byte, error) { return b, nil })
	if err != nil {
		t.Fatalf("Get(%q): %v", key, err)
	}
	if !reflect.DeepEqual(got, b) {
		t.Fatalf("Get(%q) returned wrong body: %d bytes, want %d", key, len(got), len(b))
	}
	return hit
}

func TestAdmissionDoorkeeper(t *testing.T) {
	c := New(Config{Capacity: 1 << 20})
	// Default AdmitAfter 2: the first fill is a one-hit wonder, not
	// cached; the second proves the key and admits; the third hits.
	if get(t, c, "a", body('a', 100)) {
		t.Error("first request hit")
	}
	if s := c.Stats(); s.Misses != 1 || s.Rejected != 1 || s.Entries != 0 {
		t.Errorf("after 1st miss: %+v", s)
	}
	if get(t, c, "a", body('a', 100)) {
		t.Error("second request hit (should be the admitting miss)")
	}
	if s := c.Stats(); s.Misses != 2 || s.Admitted != 1 || s.Entries != 1 || s.Bytes != 100 {
		t.Errorf("after admitting miss: %+v", s)
	}
	if !get(t, c, "a", body('a', 100)) {
		t.Error("third request missed")
	}
	if s := c.Stats(); s.Hits != 1 || s.Fills != 2 {
		t.Errorf("after hit: %+v", s)
	}
}

func TestAdmitAfterOne(t *testing.T) {
	c := New(Config{Capacity: 1 << 20, AdmitAfter: 1})
	get(t, c, "a", body('a', 10))
	if !get(t, c, "a", body('a', 10)) {
		t.Error("AdmitAfter=1 should admit on first miss")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New(Config{Capacity: 250, AdmitAfter: 1})
	get(t, c, "a", body('a', 100))
	get(t, c, "b", body('b', 100))
	if !get(t, c, "a", body('a', 100)) { // touch a: LRU order is now a, b
		t.Fatal("a should be resident")
	}
	get(t, c, "c", body('c', 100)) // 300 > 250: evicts b, the LRU tail
	if want := []string{"c", "a"}; !reflect.DeepEqual(c.Keys(), want) {
		t.Errorf("Keys() = %v, want %v", c.Keys(), want)
	}
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 2 || s.Bytes != 200 {
		t.Errorf("after eviction: %+v", s)
	}
	// b was evicted; its doorkeeper record restarted, so one request
	// is a rejected re-fill, the second re-admits.
	if get(t, c, "b", body('b', 100)) {
		t.Error("evicted key hit")
	}
	get(t, c, "b", body('b', 100))
	if !get(t, c, "b", body('b', 100)) {
		t.Error("b should be re-admitted after proving itself again")
	}
}

func TestOversizeBodyRejected(t *testing.T) {
	c := New(Config{Capacity: 50, AdmitAfter: 1})
	get(t, c, "big", body('x', 100))
	if s := c.Stats(); s.Rejected != 1 || s.Entries != 0 {
		t.Errorf("oversize body should be rejected: %+v", s)
	}
}

func TestZeroCapacityNeverStores(t *testing.T) {
	c := New(Config{AdmitAfter: 1})
	for i := 0; i < 3; i++ {
		if get(t, c, "a", body('a', 10)) {
			t.Fatal("zero-capacity cache produced a hit")
		}
	}
	if s := c.Stats(); s.Misses != 3 || s.Rejected != 3 || s.Entries != 0 {
		t.Errorf("zero-capacity stats: %+v", s)
	}
}

func TestGhostBound(t *testing.T) {
	c := New(Config{Capacity: 1 << 20})
	// a, then ghostSize more distinct keys: the doorkeeper holds
	// ghostSize keys, so a is forgotten.
	get(t, c, "a", body('a', 10))
	for i := 0; i < ghostSize; i++ {
		get(t, c, fmt.Sprintf("k%d", i), body('k', 10))
	}
	// a's count restarted: this request counts as its first again.
	get(t, c, "a", body('a', 10))
	if s := c.Stats(); s.Admitted != 0 {
		t.Errorf("forgotten ghost should not admit: %+v", s)
	}
	// Pushing a back forgot k0, but the newest key is still tracked:
	// its second request admits.
	last := fmt.Sprintf("k%d", ghostSize-1)
	get(t, c, last, body('k', 10))
	if s := c.Stats(); s.Admitted != 1 || s.Entries != 1 {
		t.Errorf("tracked ghost should admit on 2nd request: %+v", s)
	}
}

func TestFillErrorNotCachedAndRetriable(t *testing.T) {
	c := New(Config{Capacity: 1 << 20, AdmitAfter: 1, Coalesce: true})
	boom := errors.New("origin down")
	_, _, err := c.Get("k", func() ([]byte, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if s := c.Stats(); s.Entries != 0 || s.Fills != 1 {
		t.Errorf("error fill must not cache: %+v", s)
	}
	// The flight is cleared: the next Get runs a fresh fill and succeeds.
	if hit := get(t, c, "k", body('k', 10)); hit {
		t.Error("hit after failed fill")
	}
	if s := c.Stats(); s.Fills != 2 || s.Entries != 1 {
		t.Errorf("recovery fill: %+v", s)
	}
}

// TestCoalesceSingleGeneration is the acceptance-pinned property:
// N concurrent fetches of one segment generate it exactly once. It is
// deterministic — the leader's fill blocks until the cache reports
// all N-1 followers parked on the flight, so the interleaving under
// test is forced, not raced.
func TestCoalesceSingleGeneration(t *testing.T) {
	const followers = 7
	c := New(Config{Capacity: 1 << 20, AdmitAfter: 1, Coalesce: true})
	var fills atomic.Int64
	release := make(chan struct{})
	leaderIn := make(chan struct{})
	want := body('k', 64)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		got, hit, err := c.Get("seg", func() ([]byte, error) {
			fills.Add(1)
			close(leaderIn) // fill is running: followers issued now must coalesce
			<-release
			return want, nil
		})
		if err != nil || hit || !reflect.DeepEqual(got, want) {
			t.Errorf("leader: hit=%v err=%v", hit, err)
		}
	}()
	<-leaderIn
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, hit, err := c.Get("seg", func() ([]byte, error) {
				fills.Add(1)
				return body('X', 1), nil
			})
			if err != nil || hit || !reflect.DeepEqual(got, want) {
				t.Errorf("follower: hit=%v err=%v", hit, err)
			}
		}()
	}
	// Deterministic release: only unblock the fill once every follower
	// is provably waiting on it.
	for c.Waiters("seg") != followers {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if n := fills.Load(); n != 1 {
		t.Fatalf("origin generations = %d, want exactly 1", n)
	}
	s := c.Stats()
	if s.Fills != 1 || s.Misses != 1 || s.Coalesced != followers {
		t.Errorf("stats = %+v, want fills=1 misses=1 coalesced=%d", s, followers)
	}
	// The collapsed demand (1 leader + 7 waiters) cleared AdmitAfter:
	// the next fetch is a hit.
	if !get(t, c, "seg", want) {
		t.Error("post-coalesce fetch missed")
	}
}

// TestCoalescedDemandCountsForAdmission: with the default AdmitAfter 2
// a single coalesced burst carries enough demand to admit.
func TestCoalescedDemandCountsForAdmission(t *testing.T) {
	c := New(Config{Capacity: 1 << 20, Coalesce: true}) // AdmitAfter 2
	release := make(chan struct{})
	leaderIn := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Get("seg", func() ([]byte, error) {
			close(leaderIn)
			<-release
			return body('k', 8), nil
		})
	}()
	<-leaderIn
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Get("seg", func() ([]byte, error) { return body('k', 8), nil })
	}()
	for c.Waiters("seg") != 1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if s := c.Stats(); s.Admitted != 1 {
		t.Errorf("burst of 2 should clear AdmitAfter=2: %+v", s)
	}
}

// TestCoalescedWaitersShareBodyAndError parks N waiters on one flight
// whose fill returns both a body and an error: every waiter gets that
// exact body and error, and a failed fill leaves nothing behind.
func TestCoalescedWaitersShareBodyAndError(t *testing.T) {
	const waiters = 9
	c := New(Config{Capacity: 1 << 20, AdmitAfter: 1, Coalesce: true})
	boom := errors.New("origin reset mid-body")
	partial := body('p', 32)
	release := make(chan struct{})
	leaderIn := make(chan struct{})
	type result struct {
		body []byte
		hit  bool
		err  error
	}
	results := make([]result, waiters+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b, hit, err := c.Get("seg", func() ([]byte, error) {
			close(leaderIn)
			<-release
			return partial, boom
		})
		results[waiters] = result{b, hit, err}
	}()
	<-leaderIn
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, hit, err := c.Get("seg", func() ([]byte, error) {
				t.Error("a waiter ran its own fill")
				return nil, nil
			})
			results[i] = result{b, hit, err}
		}(i)
	}
	for c.Waiters("seg") != waiters {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	for i, r := range results {
		if r.hit || !errors.Is(r.err, boom) || len(r.body) != len(partial) || &r.body[0] != &partial[0] {
			t.Errorf("caller %d: hit=%v err=%v body %d bytes, want the leader's %d-byte body and %v",
				i, r.hit, r.err, len(r.body), len(partial), boom)
		}
	}
	if s := c.Stats(); s.Fills != 1 || s.Misses != 1 || s.Coalesced != waiters || s.Entries != 0 {
		t.Errorf("stats = %+v, want fills=1 misses=1 coalesced=%d entries=0", s, waiters)
	}
	if n := c.Waiters("seg"); n != 0 {
		t.Errorf("flight still has %d waiters after the fill returned", n)
	}
}

// TestConcurrentInvariants hammers the cache from many goroutines and
// checks the counter algebra afterwards (run with -race).
func TestConcurrentInvariants(t *testing.T) {
	const (
		workers = 16
		perW    = 200
		keys    = 12
	)
	c := New(Config{Capacity: 600, AdmitAfter: 2, Coalesce: true})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				k := fmt.Sprintf("k%d", (w+i)%keys)
				got, _, err := c.Get(k, func() ([]byte, error) { return body(k[1], 100), nil })
				if err != nil || len(got) != 100 {
					t.Errorf("Get(%q): len=%d err=%v", k, len(got), err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s := c.Stats()
	if total := s.Hits + s.Misses + s.Coalesced; total != workers*perW {
		t.Errorf("hits+misses+coalesced = %d, want %d (%+v)", total, workers*perW, s)
	}
	if s.Fills != s.Misses {
		t.Errorf("fills = %d, misses = %d", s.Fills, s.Misses)
	}
	if s.Bytes > 600 {
		t.Errorf("resident bytes %d exceed capacity", s.Bytes)
	}
	if s.Entries != int64(len(c.Keys())) {
		t.Errorf("entries %d != len(keys) %d", s.Entries, len(c.Keys()))
	}
}

// TestCoalescedFillSurvivesRejectedAdmission: waiters on a singleflight
// fill read the flight's captured body, not the cache map — so a fill
// whose entry never makes it into the cache (oversize rejection is the
// deterministic way to force that) must still deliver the bytes to
// every waiter, with exactly one origin generation.
func TestCoalescedFillSurvivesRejectedAdmission(t *testing.T) {
	c := New(Config{Capacity: 100, AdmitAfter: 1, Coalesce: true})
	want := body('Z', 150) // bigger than capacity: admission must reject
	release := make(chan struct{})
	leaderIn := make(chan struct{})
	var fills atomic.Int64
	var wg sync.WaitGroup

	const followers = 4
	wg.Add(1)
	go func() {
		defer wg.Done()
		got, hit, err := c.Get("big", func() ([]byte, error) {
			fills.Add(1)
			close(leaderIn)
			<-release
			return want, nil
		})
		if err != nil || hit || !reflect.DeepEqual(got, want) {
			t.Errorf("leader: hit=%v err=%v len=%d", hit, err, len(got))
		}
	}()
	<-leaderIn
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, hit, err := c.Get("big", func() ([]byte, error) {
				fills.Add(1)
				return body('X', 1), nil
			})
			if err != nil || hit || !reflect.DeepEqual(got, want) {
				t.Errorf("waiter: hit=%v err=%v len=%d", hit, err, len(got))
			}
		}()
	}
	for c.Waiters("big") != followers {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if n := fills.Load(); n != 1 {
		t.Fatalf("origin generations = %d, want exactly 1", n)
	}
	s := c.Stats()
	if s.Fills != 1 || s.Coalesced != followers {
		t.Errorf("stats = %+v, want fills=1 coalesced=%d", s, followers)
	}
	if s.Rejected == 0 || s.Entries != 0 {
		t.Errorf("oversize entry should have been rejected, not cached: %+v", s)
	}
}

// TestCoalescedFillSurvivesConcurrentEviction: while a coalesced fill
// is blocked, competing traffic churns the LRU so the cache state the
// flight started from is long gone by the time it completes. The
// waiters still get the flight's bytes and the counter algebra holds.
func TestCoalescedFillSurvivesConcurrentEviction(t *testing.T) {
	c := New(Config{Capacity: 200, AdmitAfter: 1, Coalesce: true})
	want := body('s', 120)
	release := make(chan struct{})
	leaderIn := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		got, _, err := c.Get("seg", func() ([]byte, error) {
			close(leaderIn)
			<-release
			return want, nil
		})
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("leader: err=%v len=%d", err, len(got))
		}
	}()
	<-leaderIn
	wg.Add(1)
	go func() {
		defer wg.Done()
		got, _, err := c.Get("seg", func() ([]byte, error) { return body('X', 1), nil })
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("waiter: err=%v len=%d", err, len(got))
		}
	}()
	for c.Waiters("seg") != 1 {
		runtime.Gosched()
	}
	// Churn: admit competing entries that consume the capacity the
	// blocked flight will want, forcing evictions when it lands.
	for i := 0; i < 6; i++ {
		k := fmt.Sprintf("churn%d", i)
		if _, _, err := c.Get(k, func() ([]byte, error) { return body('c', 60), nil }); err != nil {
			t.Fatalf("churn fill: %v", err)
		}
	}
	close(release)
	wg.Wait()

	s := c.Stats()
	if s.Bytes > 200 {
		t.Errorf("resident bytes %d exceed capacity after eviction race", s.Bytes)
	}
	if s.Entries != int64(len(c.Keys())) {
		t.Errorf("entries counter %d disagrees with key count %d", s.Entries, len(c.Keys()))
	}
	// One generation for seg, one per churn key.
	if s.Fills != 7 {
		t.Errorf("fills = %d, want 7", s.Fills)
	}
}
