package main

import (
	"testing"

	"coalqoe/internal/cdn"
)

func TestClassify(t *testing.T) {
	base := cdn.Stats{Hits: 5, Misses: 3, Coalesced: 1}
	cases := []struct {
		after cdn.Stats
		want  int
	}{
		{cdn.Stats{Hits: 6, Misses: 3, Coalesced: 1}, classHit},
		{cdn.Stats{Hits: 5, Misses: 4, Coalesced: 1, Fills: 1}, classMiss},
		{cdn.Stats{Hits: 5, Misses: 3, Coalesced: 2}, classCoalesced},
		{base, classNone},
	}
	for _, c := range cases {
		if got := classify(base, c.after); got != c.want {
			t.Errorf("classify(%+v) = %s, want %s", c.after, classNames[got], classNames[c.want])
		}
	}
}

// TestServeClassifiesRealRequests drives one key through a real server:
// the doorkeeper admits a key on its second request, so the first two
// are misses and the third is a hit.
func TestServeClassifiesRealRequests(t *testing.T) {
	w := newServeWorkload(1, 3)
	if err := w.Setup(); err != nil {
		t.Fatal(err)
	}
	// A key the warm-up never asked for.
	warm := map[int32]bool{}
	for _, k := range w.warm {
		warm[k] = true
	}
	k := -1
	for i := range w.keys {
		if !warm[int32(i)] {
			k = i
			break
		}
	}
	if k < 0 {
		t.Skip("warm-up touched every key")
	}
	for i, want := range []int{classMiss, classMiss, classHit} {
		before := w.cache.Stats()
		if err := w.serve(i, k); err != nil {
			t.Fatal(err)
		}
		if got := classify(before, w.cache.Stats()); got != want {
			t.Fatalf("request %d of a fresh key: %s, want %s", i+1, classNames[got], classNames[want])
		}
	}
}

// phaseFingerprint sets a workload up and returns the fingerprint of one
// untraced pass.
func phaseFingerprint(t *testing.T, w Workload) uint64 {
	t.Helper()
	if err := w.Setup(); err != nil {
		t.Fatal(err)
	}
	p, err := timePhase(w, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Failed > 0 || p.CheckErr != nil {
		t.Fatalf("%d failed ops (first: %v), check: %v", p.Failed, p.FirstErr, p.CheckErr)
	}
	return p.Fingerprint
}

func TestFingerprintRepeats(t *testing.T) {
	mk := map[string]func(seed int64) Workload{
		"session-clean":    func(s int64) Workload { return newSessionWorkload(s, 6, false) },
		"session-pressure": func(s int64) Workload { return newSessionWorkload(s, 12, true) },
		"serve":            func(s int64) Workload { return newServeWorkload(s, 3000) },
		"overload":         func(s int64) Workload { return newOverloadWorkload(s, 5) },
	}
	for name, f := range mk {
		t.Run(name, func(t *testing.T) {
			a, b := phaseFingerprint(t, f(9)), phaseFingerprint(t, f(9))
			if a != b {
				t.Fatalf("seed 9 fingerprints differ: %016x vs %016x", a, b)
			}
			if c := phaseFingerprint(t, f(10)); c == a {
				t.Fatalf("seeds 9 and 10 share fingerprint %016x", a)
			}
		})
	}
}

// TestTracedMatchesUntraced checks that tracing changes no output.
func TestTracedMatchesUntraced(t *testing.T) {
	for name, w := range map[string]Workload{
		"session-clean":    newSessionWorkload(4, 6, false),
		"session-pressure": newSessionWorkload(4, 12, true),
		"serve":            newServeWorkload(4, 2000),
		"overload":         newOverloadWorkload(4, 5),
	} {
		t.Run(name, func(t *testing.T) {
			plain := phaseFingerprint(t, w)
			if err := w.Setup(); err != nil {
				t.Fatal(err)
			}
			p, err := timePhase(w, newTracer(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if p.Fingerprint != plain {
				t.Fatalf("traced fingerprint %016x, untraced %016x", p.Fingerprint, plain)
			}
		})
	}
}
