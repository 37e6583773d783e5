package dash

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"coalqoe/internal/cdn"
	"coalqoe/internal/units"
)

// viewWriter is a ResponseWriter that keeps the slices a handler
// writes without copying them, so a test can see the views the server
// hands out as well as their bytes. It allocates nothing per Write
// beyond growing chunks.
type viewWriter struct {
	h      http.Header
	status int
	chunks [][]byte
}

func newViewWriter() *viewWriter { return &viewWriter{h: make(http.Header)} }

func (w *viewWriter) Header() http.Header { return w.h }

func (w *viewWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *viewWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.chunks = append(w.chunks, p)
	return len(p), nil
}

func (w *viewWriter) reset() {
	clear(w.h)
	w.status = 0
	w.chunks = w.chunks[:0]
}

// synthRef is the reference filler, built here independently of the
// server: byte i of every synthetic segment is byte(i*31).
func synthRef(n int) []byte {
	ref := make([]byte, n)
	for i := range ref {
		ref[i] = byte(i * 31)
	}
	return ref
}

// largestSegment returns the size of the manifest's largest segment.
func largestSegment(m *Manifest) (Rung, int, units.Bytes) {
	var best Rung
	var bestSeg int
	var bestSize units.Bytes
	for _, r := range m.Rungs {
		for seg := 0; seg < m.Video.Segments(); seg++ {
			if n := m.Video.SegmentBytes(r, seg); n > bestSize {
				best, bestSeg, bestSize = r, seg, n
			}
		}
	}
	return best, bestSeg, bestSize
}

// checkBody asserts that the chunks written for one response are
// exactly want bytes of the synthetic sequence and that every chunk is
// capped at its length, so no holder of a view can append into the
// shared filler.
func checkBody(t *testing.T, what string, chunks [][]byte, want units.Bytes, ref []byte) {
	t.Helper()
	off := 0
	for _, c := range chunks {
		if cap(c) != len(c) {
			t.Fatalf("%s: chunk at %d has cap %d, len %d", what, off, cap(c), len(c))
		}
		if off+len(c) > len(ref) || !bytes.Equal(c, ref[off:off+len(c)]) {
			t.Fatalf("%s: chunk at %d (%d bytes) is not byte(i*31)", what, off, len(c))
		}
		off += len(c)
	}
	if off != int(want) {
		t.Fatalf("%s: wrote %d bytes, want %d", what, off, want)
	}
}

// TestSyntheticBodiesAreExact checks every rung and segment of the
// first test video, byte for byte, on each way a body reaches the
// wire: generated without a cache, filled into a cache, served from
// the cache, and demoted by a Governor in brownout.
func TestSyntheticBodiesAreExact(t *testing.T) {
	m := NewManifest(TestVideos[0], StandardFPS...)
	_, _, maxSize := largestSegment(m)
	ref := synthRef(int(maxSize))
	w := newViewWriter()
	serve := func(srv *Server, path string) {
		t.Helper()
		w.reset()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.status != http.StatusOK {
			t.Fatalf("GET %s = %d", path, w.status)
		}
		if cl := w.h.Get("Content-Length"); cl != strconv.Itoa(sumLen(w.chunks)) {
			t.Fatalf("GET %s: Content-Length %q, wrote %d", path, cl, sumLen(w.chunks))
		}
	}
	each := func(fn func(r Rung, seg int, path string)) {
		for _, r := range m.Rungs {
			for seg := 0; seg < m.Video.Segments(); seg++ {
				fn(r, seg, "/video/"+rungID(r)+"/"+strconv.Itoa(seg))
			}
		}
	}

	plain := NewServer(m)
	each(func(r Rung, seg int, path string) {
		serve(plain, path)
		checkBody(t, "uncached "+path, w.chunks, m.Video.SegmentBytes(r, seg), ref)
	})

	cache := cdn.New(cdn.Config{Capacity: 1 << 40, AdmitAfter: 1, Coalesce: true})
	cached := NewServerOpts(m, ServerOptions{Cache: cache})
	for _, pass := range []string{"fill", "hit"} {
		each(func(r Rung, seg int, path string) {
			before := cache.Stats()
			serve(cached, path)
			after := cache.Stats()
			if hit := after.Hits > before.Hits; hit != (pass == "hit") {
				t.Fatalf("%s %s: cache hit = %v", pass, path, hit)
			}
			checkBody(t, pass+" "+path, w.chunks, m.Video.SegmentBytes(r, seg), ref)
		})
	}
	body, hit, err := cache.Get("1440p60/0", func() ([]byte, error) {
		t.Fatal("resident key refilled")
		return nil, nil
	})
	if !hit || err != nil || cap(body) != len(body) {
		t.Fatalf("resident body: hit %v, err %v, cap %d, len %d", hit, err, cap(body), len(body))
	}

	epoch := time.Unix(1700000000, 0)
	gov := cdn.NewGovernor(cdn.GovernorConfig{
		BrownoutEnter: 0.2, BrownoutDemote: 2,
		Quotas: []cdn.TenantQuota{{Name: "flood", Rate: 0.0001, Burst: 1}},
	}, func() time.Time { return epoch })
	if d := gov.Admit("flood"); d.Kind != cdn.Admitted {
		t.Fatal("setup: flood's first request should be admitted")
	}
	gov.Release()
	governed := NewServerOpts(m, ServerOptions{Governor: gov})
	demoted := 0
	each(func(r Rung, seg int, path string) {
		// One throttled flood request per segment keeps the shed EWMA,
		// and so the brownout, up.
		if d := gov.Admit("flood"); d.Kind != cdn.Shed {
			t.Fatal("flood request not shed")
		}
		serve(governed, path)
		idx := governed.ladderIdx[rungKey{r.Resolution, r.FPS}]
		served := governed.ladder[max(idx-2, 0)]
		if id := w.h.Get(ServedRungHeader); id != "" {
			demoted++
			if id != rungID(served) {
				t.Fatalf("%s: served %s, want %s", path, id, rungID(served))
			}
		} else if served != r {
			t.Fatalf("%s: not demoted to %s", path, rungID(served))
		}
		checkBody(t, "governed "+path, w.chunks, m.Video.SegmentBytes(served, seg), ref)
	})
	// Brownout steps two rungs down, clamped at the floor, so every
	// rung but the lowest is demoted.
	if want := (len(m.Rungs) - 1) * m.Video.Segments(); demoted != want {
		t.Errorf("%d responses demoted, want %d", demoted, want)
	}
}

func sumLen(chunks [][]byte) int {
	n := 0
	for _, c := range chunks {
		n += len(c)
	}
	return n
}

// TestSynthBodyConcurrentGrowth grows the shared filler from eight
// goroutines asking for interleaved sizes, so growths race with reads
// of views handed out before them. Run it with -race.
func TestSynthBodyConcurrentGrowth(t *testing.T) {
	synthMu.Lock()
	synthFiller.Store(nil)
	synthMu.Unlock()
	const workers, rounds, step = 8, 64, 4093
	ref := synthRef(workers * rounds * step)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				n := (k*workers + g + 1) * step
				body := synthBody(units.Bytes(n))
				// The explicit last-byte read is one the race detector
				// sees; bytes.Equal's assembly is not instrumented.
				if len(body) != n || cap(body) != n || body[n-1] != byte((n-1)*31) || !bytes.Equal(body, ref[:n]) {
					t.Errorf("worker %d: synthBody(%d) wrong (len %d, cap %d)", g, n, len(body), cap(body))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSegmentServingAllocations gates what one segment request
// allocates: a cache fill and a cache hit cost the request's own
// bookkeeping, not the segment's size. The filler is grown once
// beforehand, as a running server's first large request does.
func TestSegmentServingAllocations(t *testing.T) {
	m := NewManifest(TestVideos[0], StandardFPS...)
	big, bigSeg, _ := largestSegment(m)
	bigPath := "/video/" + rungID(big) + "/" + strconv.Itoa(bigSeg)
	const smallPath = "/video/240p30/3"
	w := newViewWriter()
	allocs := func(srv *Server, path string) uint64 {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		w.reset()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		srv.ServeHTTP(w, req)
		runtime.ReadMemStats(&after)
		if w.status != http.StatusOK {
			t.Fatalf("GET %s = %d", path, w.status)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	allocs(NewServer(m), bigPath)

	srv := NewServerOpts(m, ServerOptions{
		Cache: cdn.New(cdn.Config{Capacity: 1 << 30, AdmitAfter: 1, Coalesce: true}),
	})
	for _, c := range []struct {
		what, path string
		limit      uint64
	}{
		{"largest fill", bigPath, 16 << 10},
		{"240p fill", smallPath, 16 << 10},
		{"largest hit", bigPath, 1 << 10},
		{"240p hit", smallPath, 1 << 10},
	} {
		if got := allocs(srv, c.path); got >= c.limit {
			t.Errorf("%s (%s) allocated %d bytes, want < %d", c.what, c.path, got, c.limit)
		}
	}
}

// TestCacheKeyIsCanonical sends one segment under four spellings the
// parser accepts; they must share one cache entry.
func TestCacheKeyIsCanonical(t *testing.T) {
	cache := cdn.New(cdn.Config{Capacity: 64 << 20, AdmitAfter: 1})
	srv := NewServerOpts(NewManifest(TestVideos[0], StandardFPS...), ServerOptions{Cache: cache})
	for _, path := range []string{"/video/240p30/7", "/video/240p30/07", "/video/240p30/+7", "/video/240p030/7"} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d", path, rec.Code)
		}
	}
	if st := cache.Stats(); st.Misses != 1 || st.Entries != 1 || st.Hits != 3 {
		t.Errorf("cache: %d misses, %d entries, %d hits; want 1, 1, 3", st.Misses, st.Entries, st.Hits)
	}
	if keys := cache.Keys(); len(keys) != 1 || keys[0] != "240p30/7" {
		t.Errorf("cache keys = %q, want [240p30/7]", keys)
	}
}
