package main

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"coalqoe/internal/cdn"
	"coalqoe/internal/dash"
)

// Serve sizing. The working set (every key in ServeKeys, about
// 170 MB) is several times the cache, so the Zipf tail keeps missing.
const (
	serveCacheBytes = 32 << 20
	serveWarmup     = 15_000 // requests played in each set-up
	governorStep    = 100 * time.Microsecond
)

// sink is the ResponseWriter every request writes into: it keeps the
// status and counts body bytes, and keeps no body.
type sink struct {
	h      http.Header
	status int
	n      int64
}

func (s *sink) Header() http.Header { return s.h }

func (s *sink) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
}

func (s *sink) Write(p []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	s.n += int64(len(p))
	return len(p), nil
}

func (s *sink) reset() {
	clear(s.h)
	s.status, s.n = 0, 0
}

// Request classes, from the cache's Stats delta across one call.
const (
	classHit = iota
	classMiss
	classCoalesced
	classNone
)

// classify names what the cache did for one request.
func classify(before, after cdn.Stats) int {
	switch {
	case after.Hits-before.Hits == 1:
		return classHit
	case after.Misses-before.Misses == 1:
		return classMiss
	case after.Coalesced-before.Coalesced == 1:
		return classCoalesced
	}
	return classNone
}

var classNames = [...]string{"serve.hit", "serve.miss", "serve.coalesced", "serve.none"}

// serveWorkload drives dash.Server.ServeHTTP in process: one goroutine,
// requests built in advance, a coalescing cdn.Cache, and a cdn.Governor
// over four tenants on a clock that advances a fixed step per request.
type serveWorkload struct {
	seed     int64
	ops      int
	governed bool

	keys    []Key
	lengths []string
	seq     []int32
	warm    []int32
	reqs    [][]*http.Request // [tenant][key]

	srv   *dash.Server
	cache *cdn.Cache
	gov   *cdn.Governor
	now   time.Time
	w     sink
	start cdn.Stats
	fp    *Fingerprint

	// traced pass
	classTime  [4]time.Duration
	classCount [4]int
}

func newServeWorkload(seed int64, ops int) *serveWorkload {
	return &serveWorkload{seed: seed, ops: ops, governed: true}
}

func (w *serveWorkload) Ops() int { return len(w.seq) }

// Setup builds the key set, both request sequences, every request and
// a fresh server, then plays the warm-up sequence through it.
func (w *serveWorkload) Setup() error {
	w.keys = ServeKeys()
	w.lengths = make([]string, len(w.keys))
	for i, k := range w.keys {
		w.lengths[i] = strconv.FormatInt(k.Size, 10)
	}
	w.seq = KeySequence(w.seed, "serve", w.keys, w.ops)
	w.warm = KeySequence(w.seed, "serve-warm", w.keys, serveWarmup)
	w.reqs = make([][]*http.Request, len(serveTenants))
	for t, name := range serveTenants {
		w.reqs[t] = make([]*http.Request, len(w.keys))
		for i, k := range w.keys {
			r, err := http.NewRequest(http.MethodGet, "http://bench"+k.Path(), nil)
			if err != nil {
				return err
			}
			r.Header.Set(dash.TenantHeader, name)
			w.reqs[t][i] = r
		}
	}
	w.cache = cdn.New(cdn.Config{Capacity: serveCacheBytes, Coalesce: true})
	opts := dash.ServerOptions{Cache: w.cache}
	w.gov = nil
	if w.governed {
		w.now = time.Unix(1700000000, 0)
		quotas := make([]cdn.TenantQuota, len(serveTenants))
		for i, name := range serveTenants {
			quotas[i] = cdn.TenantQuota{Name: name, Rate: 1e9, Burst: 1e9}
		}
		w.gov = cdn.NewGovernor(cdn.GovernorConfig{MaxInflight: 16, Quotas: quotas},
			func() time.Time { return w.now })
		opts.Governor = w.gov
	}
	w.srv = dash.NewServerOpts(dash.NewManifest(serveVideo, dash.StandardFPS...), opts)
	w.w = sink{h: make(http.Header)}
	w.fp = newFingerprint()
	for i, k := range w.warm {
		if err := w.serve(i, int(k)); err != nil {
			return fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	w.start = w.cache.Stats()
	w.fp = newFingerprint()
	w.classTime, w.classCount = [4]time.Duration{}, [4]int{}
	return nil
}

// serve sends request i (key k) and checks the response.
func (w *serveWorkload) serve(i, k int) error {
	w.now = w.now.Add(governorStep)
	w.w.reset()
	w.srv.ServeHTTP(&w.w, w.reqs[i%len(serveTenants)][k])
	if w.w.status != http.StatusOK {
		return fmt.Errorf("%s: status %d", w.keys[k].Path(), w.w.status)
	}
	if cl := w.w.h.Get("Content-Length"); cl != w.lengths[k] || w.w.n != w.keys[k].Size {
		return fmt.Errorf("%s: wrote %d bytes, Content-Length %q, want %d",
			w.keys[k].Path(), w.w.n, cl, w.keys[k].Size)
	}
	w.fp.Add(int64(k), w.w.n)
	return nil
}

func (w *serveWorkload) Op(i int, tr *Tracer) error {
	k := int(w.seq[i])
	if tr == nil {
		return w.serve(i, k)
	}
	before := w.cache.Stats()
	t0 := time.Now()
	err := w.serve(i, k)
	t1 := time.Now()
	c := classify(before, w.cache.Stats())
	w.classTime[c] += t1.Sub(t0)
	w.classCount[c]++
	root := tr.Add(i, -1, "op", t0, t1)
	tr.Add(i, root, classNames[c], t0, t1)
	return err
}

func (w *serveWorkload) delta() cdn.Stats {
	s := w.cache.Stats()
	return cdn.Stats{
		Hits: s.Hits - w.start.Hits, Misses: s.Misses - w.start.Misses,
		Coalesced: s.Coalesced - w.start.Coalesced, Fills: s.Fills - w.start.Fills,
		Admitted: s.Admitted - w.start.Admitted, Rejected: s.Rejected - w.start.Rejected,
		Evictions: s.Evictions - w.start.Evictions,
	}
}

// Check closes the phase's accounting: every request reached the
// cache exactly once and the Governor shed nothing.
func (w *serveWorkload) Check() error {
	d := w.delta()
	if got := d.Hits + d.Misses + d.Coalesced; got != int64(len(w.seq)) {
		return fmt.Errorf("cache saw %d requests, want %d", got, len(w.seq))
	}
	if w.gov != nil {
		if gs := w.gov.Stats(); gs.Shed != 0 || gs.Throttled != 0 {
			return fmt.Errorf("governor shed %d and throttled %d requests", gs.Shed, gs.Throttled)
		}
	}
	w.fp.Add(d.Hits, d.Misses, d.Coalesced, d.Fills, d.Admitted, d.Rejected, d.Evictions)
	return nil
}

func (w *serveWorkload) Fingerprint() uint64 { return w.fp.Sum() }

// Layers reports the traced pass and prices the Governor with
// governorCost.
func (w *serveWorkload) Layers() (map[string]float64, error) {
	d := w.delta()
	total := d.Hits + d.Misses + d.Coalesced
	if total == 0 {
		return nil, fmt.Errorf("no traced requests")
	}
	mean := func(c int) float64 {
		if w.classCount[c] == 0 {
			return 0
		}
		return us(w.classTime[c]) / float64(w.classCount[c])
	}
	m := map[string]float64{
		"cdn.hit_ratio": float64(d.Hits) / float64(total),
		"cdn.fills":     float64(d.Fills),
		"cdn.evictions": float64(d.Evictions),
		"cdn.rejected":  float64(d.Rejected),
		"serve.hit_us":  mean(classHit),
		"serve.miss_us": mean(classMiss),
	}
	gov, err := governorCost(w.seed, w.ops)
	if err != nil {
		return nil, err
	}
	m["cdn.governor_us"] = gov
	return m, nil
}

// governorCost replays the op list on two fresh servers, one with the
// Governor and one without, alternating them request by request so
// both see the same heap and host conditions. It returns the mean
// per-request difference in microseconds.
func governorCost(seed int64, ops int) (float64, error) {
	with := newServeWorkload(seed, ops)
	bare := &serveWorkload{seed: seed, ops: ops}
	if err := with.Setup(); err != nil {
		return 0, err
	}
	if err := bare.Setup(); err != nil {
		return 0, err
	}
	var tWith, tBare time.Duration
	for i := 0; i < with.Ops(); i++ {
		t0 := time.Now()
		errW := with.Op(i, nil)
		t1 := time.Now()
		errB := bare.Op(i, nil)
		t2 := time.Now()
		if errW != nil || errB != nil {
			return 0, fmt.Errorf("governor replay, request %d: %v / %v", i, errW, errB)
		}
		tWith += t1.Sub(t0)
		tBare += t2.Sub(t1)
	}
	return us(tWith-tBare) / float64(with.Ops()), nil
}
