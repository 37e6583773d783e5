package main

import (
	"reflect"
	"testing"
)

func TestRosterDeterministic(t *testing.T) {
	for _, base := range [][]Cell{cleanBase(), pressureBase()} {
		a, b := Roster(7, base, 50), Roster(7, base, 50)
		if !reflect.DeepEqual(a, b) {
			t.Fatal("same seed gave different rosters")
		}
		if reflect.DeepEqual(a, Roster(8, base, 50)) {
			t.Fatal("different seeds gave the same roster")
		}
		if len(a)%len(base) != 0 || len(a) < 50 {
			t.Fatalf("roster of %d sessions is not whole blocks of %d covering 50", len(a), len(base))
		}
		// Every block holds each base cell exactly once.
		for off := 0; off < len(a); off += len(base) {
			seen := map[string]int{}
			for _, c := range a[off : off+len(base)] {
				seen[c.String()]++
			}
			for _, c := range base {
				if seen[c.String()] != 1 {
					t.Fatalf("block at %d holds %s %d times", off, c, seen[c.String()])
				}
			}
		}
	}
}

func TestKeySequenceDeterministic(t *testing.T) {
	keys := ServeKeys()
	n := len(keys)
	a, b := KeySequence(3, "serve", keys, 10000), KeySequence(3, "serve", keys, 10000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different key sequences")
	}
	if reflect.DeepEqual(a, KeySequence(4, "serve", keys, 10000)) {
		t.Fatal("different seeds gave the same key sequence")
	}
	for _, k := range a {
		if k < 0 || int(k) >= n {
			t.Fatalf("key index %d out of range [0,%d)", k, n)
		}
	}
}

func TestSimConfigsDeterministic(t *testing.T) {
	a, b := SimConfigs(5, 4), SimConfigs(5, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different sim configs")
	}
	if reflect.DeepEqual(a, SimConfigs(6, 4)) {
		t.Fatal("different seeds gave the same sim configs")
	}
	if a[0].Seed == a[1].Seed {
		t.Fatal("ops share a seed lane")
	}
}
