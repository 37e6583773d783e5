package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"coalqoe/internal/cdn"
	"coalqoe/internal/dash"
	"coalqoe/internal/device"
	"coalqoe/internal/faults"
	"coalqoe/internal/loadgen"
	"coalqoe/internal/proc"
)

// The generators below are pure functions of the workload seed: they
// build every input the program receives (the session roster, the
// request key sequence, the overload sim configs) and nothing else.
// Each op gets its own seed lane, an FNV hash of the workload seed and
// the op's index, so neighbouring ops are not correlated.

// lane returns the seed of input i in the named stream of a workload.
func lane(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "perfbench|%s|%d|%d", stream, seed, i)
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// blocks rounds an op budget up to whole blocks of the given size, so
// every run holds each block member the same number of times.
func blocks(ops, size int) int {
	if ops < size {
		ops = size
	}
	return (ops + size - 1) / size * size
}

// Cell is one session of a roster: one exp.Run on one device.
type Cell struct {
	Profile  device.Profile
	Pressure proc.Level
	// Algo names the ABR rule attached through OnSession; "" leaves
	// the starting rung fixed for the whole session.
	Algo       string
	Resolution dash.Resolution
	FPS        int
	// Storm injects the memstorm fault plan.
	Storm bool
	Seed  int64
}

func (c Cell) String() string {
	algo := c.Algo
	if algo == "" {
		algo = "fixed"
	}
	return fmt.Sprintf("%s/%s/%s%d/%s", c.Profile.Name, c.Pressure, c.Resolution, c.FPS, algo)
}

// cleanBase is the session-clean block: both larger devices under every
// attached ABR rule, at Normal pressure, starting at 1080p60 as the
// arena does. The Nokia 1 is left out: with 1 GiB the player alone
// wakes kswapd (about 400 ms of simulated CPU in every bola session),
// and this workload must keep the reclaim path idle.
func cleanBase() []Cell {
	var out []Cell
	for _, d := range []device.Profile{device.Nexus5, device.Nexus6P} {
		for _, a := range []string{"mpc", "memopt", "bola"} {
			out = append(out, Cell{Profile: d, Pressure: proc.Normal, Algo: a, Resolution: dash.R1080p, FPS: 60})
		}
	}
	return out
}

// pressureBase is the session-pressure block: every device at
// Moderate and Critical, playing 1080p60 fixed under the memstorm plan.
// One rung keeps the block small, so the costliest cell (Nexus 5 at
// Moderate) is a sixth of the ops and the tail percentile falls well
// inside it rather than on its few slowest sessions.
func pressureBase() []Cell {
	var out []Cell
	for _, d := range []device.Profile{device.Nokia1, device.Nexus5, device.Nexus6P} {
		for _, p := range []proc.Level{proc.Moderate, proc.Critical} {
			out = append(out, Cell{Profile: d, Pressure: p, Resolution: dash.R1080p, FPS: 60, Storm: true})
		}
	}
	return out
}

// Roster returns n sessions (rounded up to whole blocks) drawn from
// base: each block holds every base cell once, in a seeded order, and
// every session has its own seed lane. A fixed block composition keeps
// the mix of cheap and expensive sessions the same at every seed.
func Roster(seed int64, base []Cell, n int) []Cell {
	n = blocks(n, len(base))
	rng := rand.New(rand.NewSource(lane(seed, "roster-order", 0)))
	out := make([]Cell, 0, n)
	for len(out) < n {
		for _, j := range rng.Perm(len(base)) {
			c := base[j]
			c.Seed = lane(seed, "session", len(out))
			out = append(out, c)
		}
	}
	return out
}

// serveVideo is the content the serve workload requests.
var serveVideo = dash.TestVideos[0]

// serveRungs are the representations the serve workload requests: the
// 240p and 360p rungs at every standard frame rate. Higher rungs would
// make every miss an allocator benchmark.
func serveRungs() []dash.Rung {
	var out []dash.Rung
	for _, r := range dash.Ladder(dash.StandardFPS...) {
		if r.Resolution == dash.R240p || r.Resolution == dash.R360p {
			out = append(out, r)
		}
	}
	return out
}

// Key is one segment the serve workload can request.
type Key struct {
	Rung dash.Rung
	Seg  int
	Size int64
}

// Path is the request path of the key.
func (k Key) Path() string {
	return fmt.Sprintf("/video/%s%d/%d", k.Rung.Resolution, k.Rung.FPS, k.Seg)
}

// ServeKeys lists every key of the serve working set in a fixed order.
func ServeKeys() []Key {
	var out []Key
	for _, r := range serveRungs() {
		for s := 0; s < serveVideo.Segments(); s++ {
			out = append(out, Key{Rung: r, Seg: s, Size: int64(serveVideo.SegmentBytes(r, s))})
		}
	}
	return out
}

// serveTenants are the Governor's tenants; requests cycle through them.
var serveTenants = []string{"t0", "t1", "t2", "t3"}

// zipfS is the skew of the serve key popularity.
const zipfS = 1.1

// KeySequence returns n request indices into keys: a Zipf popularity
// over a seeded ranking of the keys. The ranking deals the keys out one
// rung at a time (each rung's hottest segment, then each rung's second,
// and so on, in a seeded rung order per round), so every popularity
// tier mixes the rungs alike. Which segments are hot changes with the
// seed; the bytes behind each tier, and so the miss cost, hardly do.
func KeySequence(seed int64, stream string, keys []Key, n int) []int32 {
	rng := rand.New(rand.NewSource(lane(seed, stream, 0)))
	var rungs []dash.Rung
	byRung := map[dash.Rung][]int32{}
	for i, k := range keys {
		if _, ok := byRung[k.Rung]; !ok {
			rungs = append(rungs, k.Rung)
		}
		byRung[k.Rung] = append(byRung[k.Rung], int32(i))
	}
	for _, r := range rungs {
		ks := byRung[r]
		rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	}
	rank := make([]int32, 0, len(keys))
	for round := 0; len(rank) < len(keys); round++ {
		for _, j := range rng.Perm(len(rungs)) {
			if ks := byRung[rungs[j]]; round < len(ks) {
				rank = append(rank, ks[round])
			}
		}
	}
	z := rand.NewZipf(rng, zipfS, 1, uint64(len(rank)-1))
	out := make([]int32, n)
	for i := range out {
		out[i] = rank[z.Uint64()]
	}
	return out
}

// Overload sim sizing: enough players that the Governor queues and
// sheds during every outage, few enough that one op stays well under a
// second.
const (
	simPlayers  = 300
	simAttempts = 3
	simDuration = 40 * time.Second
)

// SimConfigs returns n overload-sim configs, one per op: the same
// fleet under a retry storm, each with its own seed lane (player
// phases, jitter and the storm's outage schedule).
func SimConfigs(seed int64, n int) []loadgen.SimConfig {
	out := make([]loadgen.SimConfig, n)
	for i := range out {
		out[i] = simConfig(lane(seed, "overload", i))
	}
	return out
}

func simConfig(seed int64) loadgen.SimConfig {
	storm := faults.RetryStorm()
	return loadgen.SimConfig{
		Players:    simPlayers,
		Tenants:    []string{"gold", "bronze"},
		Seed:       seed,
		Duration:   simDuration,
		SegDur:     4 * time.Second,
		Timeout:    1500 * time.Millisecond,
		RTT:        time.Millisecond,
		ErrorPause: 250 * time.Millisecond,
		Retry:      dash.RetryPolicy{Attempts: simAttempts, Backoff: 100 * time.Millisecond, BackoffCap: 800 * time.Millisecond},
		Ladder: []loadgen.SimRung{
			{ID: "240p30", Bytes: 250_000},
			{ID: "480p30", Bytes: 500_000},
			{ID: "1080p60", Bytes: 1_000_000},
		},
		Capacity:           4,
		ServiceFloor:       25 * time.Millisecond,
		ServiceBytesPerSec: 40 << 20,
		Faults:             storm.Windows(seed, simDuration),
		Protect: &loadgen.SimProtections{
			MaxQueue:   16,
			RetryAfter: time.Second,
			Quotas: []cdn.TenantQuota{
				{Name: "gold", Rate: 40, Burst: 40},
				{Name: "bronze", Rate: 40, Burst: 40},
			},
			BrownoutEnter:    0.1,
			BrownoutDemote:   2,
			CancelOnTimeout:  true,
			RetryBudget:      5,
			BreakerThreshold: 5,
			BreakerCooldown:  2 * time.Second,
			Jitter:           true,
		},
		Workers: 1,
	}
}
