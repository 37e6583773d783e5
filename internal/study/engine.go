package study

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"coalqoe/internal/proc"
	"coalqoe/internal/stats"
	"coalqoe/internal/units"
)

// This file is the fleet engine: the streaming, sharded, resumable
// driver that scales the §3 user study from the paper's 80 recruits to
// a million-user synthetic panel. The determinism contract extends the
// executor discipline from internal/exp:
//
//   - every participant's simulation seed is an FNV lane of their
//     identity (UserSeed), assigned before any worker starts;
//   - a shard is the unit of parallelism AND of checkpointing: within
//     a shard users fold strictly in index order, so a checkpoint is
//     always an exact prefix of the shard's work;
//   - aggregate state is canonical (order-independent), so the merged
//     result is byte-identical whatever the shard count, worker count,
//     or kill/resume history.
//
// Panics inside one user's simulation are captured per user (the
// hardened-executor pattern) and surface as aggregate failure records,
// never as a dead process mid-run.

// ErrHalted reports that a run stopped early at HaltAfter users; the
// progress is checkpointed and a later run with Resume continues it.
var ErrHalted = errors.New("study: fleet run halted after HaltAfter users (checkpointed; rerun with Resume)")

// checkpointSchema versions the shard checkpoint format.
const checkpointSchema = 1

// checkpointEvery is the per-shard checkpoint cadence in users.
const checkpointEvery = 256

// FleetConfig configures a streaming fleet run.
type FleetConfig struct {
	// Users is the recruit count. Ignored when Population is set
	// (the model's Size wins).
	Users int64
	// Seed is the fleet seed; every user's simulation seed derives
	// from it via UserSeed.
	Seed int64
	// Population supplies participants. nil uses a Roster over
	// GenerateUsers(Users, Seed) — the paper's demographics.
	Population PopulationModel
	// Shards is the partition count. Each shard covers a contiguous
	// index range, folds sequentially, and checkpoints independently.
	// 0 picks a default from Users and Workers. The merged result is
	// byte-identical at any shard count.
	Shards int
	// Workers bounds concurrently simulated shards. 0 means NumCPU.
	Workers int
	// CheckpointDir, when set, persists per-shard progress there
	// (shard-NNNN.json) every checkpointEvery users and at completion.
	CheckpointDir string
	// Resume loads per-shard checkpoints from CheckpointDir and
	// continues; checkpoints from a different configuration are
	// refused (fingerprint mismatch).
	Resume bool
	// HaltAfter, when > 0, stops the run after about that many users
	// this invocation (each in-flight shard finishes its current user),
	// checkpoints, and returns ErrHalted. It exists so a multi-hour run
	// can be budgeted into slices — and so tests can kill and resume a
	// run deterministically. Requires CheckpointDir.
	HaltAfter int64
	// Runner overrides the per-user simulation (nil = RunUser). Tests
	// and benchmarks use SyntheticRunner to exercise the aggregation
	// path without the kernel substrate.
	Runner func(*User, int64) *DeviceLog
}

// FleetRunStats reports what one engine invocation did.
type FleetRunStats struct {
	Shards       int
	UsersRun     int64
	UsersSkipped int64 // already covered by resumed checkpoints
	Checkpoints  int64
}

// fleetFingerprint identifies a run configuration; a checkpoint only
// resumes under the configuration that wrote it.
type fleetFingerprint struct {
	Schema      int    `json:"schema"`
	Users       int64  `json:"users"`
	Seed        int64  `json:"seed"`
	Shards      int    `json:"shards"`
	Shard       int    `json:"shard"`
	Population  string `json:"population"`
	ExactRetain int    `json:"exact_retain"`
	TopK        int    `json:"top_k"`
}

// shardCheckpoint is the persisted per-shard state: the fingerprint,
// the next index to process, and the aggregate over [lo, next).
type shardCheckpoint struct {
	Fingerprint fleetFingerprint `json:"fingerprint"`
	Lo          int64            `json:"lo"`
	Hi          int64            `json:"hi"`
	Next        int64            `json:"next"`
	Agg         *FleetAggregate  `json:"agg"`
}

// check rejects a decoded checkpoint that the shard [lo, hi) with the
// empty aggregate fresh could not have written. The fingerprint only
// names the configuration; resuming state that disagrees with it would
// panic inside a worker or count users twice or never.
func (ck *shardCheckpoint) check(lo, hi int64, fresh *FleetAggregate) error {
	switch {
	case ck.Agg == nil:
		return errors.New("no aggregate")
	case ck.Lo != lo || ck.Hi != hi:
		return fmt.Errorf("covers users [%d, %d), the shard is [%d, %d)", ck.Lo, ck.Hi, lo, hi)
	case ck.Next < lo || ck.Next > hi:
		return fmt.Errorf("next user %d outside [%d, %d]", ck.Next, lo, hi)
	case ck.Agg.Recruited != ck.Next-lo:
		// Every processed user increments Recruited exactly once.
		return fmt.Errorf("aggregate counts %d recruits, next user %d implies %d", ck.Agg.Recruited, ck.Next, ck.Next-lo)
	}
	return ck.Agg.checkShape(fresh)
}

type shardState struct {
	index    int
	lo, hi   int64
	next     int64
	agg      *FleetAggregate
	sinceCkp int
}

func (cfg *FleetConfig) normalize() (PopulationModel, int, int, error) {
	pop := cfg.Population
	if pop == nil {
		if cfg.Users <= 0 {
			return nil, 0, 0, errors.New("study: FleetConfig needs Users or Population")
		}
		pop = NewRoster(GenerateUsers(int(cfg.Users), cfg.Seed))
	}
	n := pop.Size()
	if n <= 0 {
		return nil, 0, 0, errors.New("study: empty population")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	shards := cfg.Shards
	if shards <= 0 {
		// Enough shards that workers stay busy and checkpoints stay
		// fine-grained, without drowning small panels in shard files.
		shards = 4 * workers
		if per := int(n / 1024); per > shards {
			shards = per
		}
		if shards > 1024 {
			shards = 1024
		}
	}
	if int64(shards) > n {
		shards = int(n)
	}
	if workers > shards {
		workers = shards
	}
	if cfg.HaltAfter > 0 && cfg.CheckpointDir == "" {
		return nil, 0, 0, errors.New("study: HaltAfter without CheckpointDir would discard the partial run")
	}
	return pop, shards, workers, nil
}

// RunFleetStream runs the streaming fleet study and returns the merged
// aggregate. The result is byte-identical (in serialized form) for any
// Shards/Workers setting and across checkpoint/resume cycles; on
// ErrHalted the partial progress lives in CheckpointDir and the
// returned aggregate is nil.
func RunFleetStream(cfg FleetConfig) (*FleetAggregate, FleetRunStats, error) {
	pop, nShards, workers, err := cfg.normalize()
	var stats FleetRunStats
	if err != nil {
		return nil, stats, err
	}
	stats.Shards = nShards
	n := pop.Size()
	runner := cfg.Runner
	if runner == nil {
		runner = RunUser
	}

	fp := func(shard int) fleetFingerprint {
		return fleetFingerprint{
			Schema: checkpointSchema, Users: n, Seed: cfg.Seed,
			Shards: nShards, Shard: shard, Population: pop.Name(),
			ExactRetain: exactRetain, TopK: topK,
		}
	}

	shards := make([]*shardState, nShards)
	for s := 0; s < nShards; s++ {
		lo := int64(s) * n / int64(nShards)
		hi := int64(s+1) * n / int64(nShards)
		st := &shardState{index: s, lo: lo, hi: hi, next: lo,
			agg: NewFleetAggregate()}
		if cfg.Resume {
			ck, err := loadCheckpoint(cfg.CheckpointDir, s)
			if err != nil {
				return nil, stats, err
			}
			if ck != nil {
				if ck.Fingerprint != fp(s) {
					return nil, stats, fmt.Errorf("study: shard %d checkpoint was written by a different run configuration (%+v vs %+v)",
						s, ck.Fingerprint, fp(s))
				}
				if err := ck.check(lo, hi, st.agg); err != nil {
					return nil, stats, fmt.Errorf("study: corrupt checkpoint %s: %w", checkpointPath(cfg.CheckpointDir, s), err)
				}
				st.next, st.agg = ck.Next, ck.Agg
				stats.UsersSkipped += ck.Next - lo
			}
		}
		shards[s] = st
	}

	var (
		processed int64 // users simulated this invocation
		halt      atomic.Bool
		ckpCount  int64
		mu        sync.Mutex
		firstErr  error
		nextShard int64 = -1
		wg        sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		halt.Store(true)
	}
	checkpoint := func(st *shardState) {
		if cfg.CheckpointDir == "" {
			return
		}
		ck := &shardCheckpoint{Fingerprint: fp(st.index), Lo: st.lo, Hi: st.hi, Next: st.next, Agg: st.agg}
		if err := writeCheckpoint(cfg.CheckpointDir, st.index, ck); err != nil {
			fail(err)
			return
		}
		atomic.AddInt64(&ckpCount, 1)
		st.sinceCkp = 0
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				si := int(atomic.AddInt64(&nextShard, 1))
				if si >= nShards || halt.Load() {
					return
				}
				st := shards[si]
				for st.next < st.hi {
					if halt.Load() {
						checkpoint(st)
						return
					}
					i := st.next
					u := pop.User(i)
					if u.InteractiveHours >= MinInteractiveHours {
						log, err := runUserSafe(runner, u, UserSeed(cfg.Seed, u.ID))
						if err != nil {
							st.agg.FoldFailure(u, i, err.Error())
						} else {
							st.agg.Fold(u, log, i)
						}
					} else {
						st.agg.NoteRecruit()
					}
					st.next++
					st.sinceCkp++
					if cfg.HaltAfter > 0 && atomic.AddInt64(&processed, 1) >= cfg.HaltAfter {
						halt.Store(true)
					} else if cfg.HaltAfter <= 0 {
						atomic.AddInt64(&processed, 1)
					}
					if st.sinceCkp >= checkpointEvery {
						checkpoint(st)
					}
				}
				checkpoint(st)
			}
		}()
	}
	wg.Wait()
	if halt.Load() && firstErr == nil {
		// Shards never claimed by a worker still need their (possibly
		// resumed) progress persisted, so a later Resume sees them.
		for _, st := range shards {
			if st.next > st.lo || cfg.Resume {
				// Claimed shards already checkpointed on halt; writing
				// again is harmless and covers unclaimed resumed ones.
				checkpoint(st)
			}
		}
	}
	stats.UsersRun = processed
	stats.Checkpoints = ckpCount
	if firstErr != nil {
		return nil, stats, firstErr
	}
	if halt.Load() {
		return nil, stats, ErrHalted
	}

	merged := NewFleetAggregate()
	for _, st := range shards {
		merged.Merge(st.agg)
	}
	return merged, stats, nil
}

func checkpointPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.json", shard))
}

func loadCheckpoint(dir string, shard int) (*shardCheckpoint, error) {
	if dir == "" {
		return nil, nil
	}
	data, err := os.ReadFile(checkpointPath(dir, shard))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var ck shardCheckpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("study: corrupt checkpoint %s: %w", checkpointPath(dir, shard), err)
	}
	return &ck, nil
}

// writeCheckpoint persists atomically (write-temp + rename), so a kill
// mid-write leaves the previous checkpoint intact rather than a torn
// file.
func writeCheckpoint(dir string, shard int, ck *shardCheckpoint) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(ck)
	if err != nil {
		return err
	}
	path := checkpointPath(dir, shard)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// SyntheticRunner returns a per-user runner that fabricates a
// statistically plausible DeviceLog directly from the user's seed lane
// instead of simulating the kernel substrate. It exists for the
// engine's own scaling tests and benchmarks (fleet/users10k,
// million-user bounded-memory runs): it exercises exactly the
// aggregation path — fold, merge, checkpoint — while costing
// microseconds per user. Deterministic in (user, seed).
func SyntheticRunner() func(*User, int64) *DeviceLog {
	return func(u *User, seed int64) *DeviceLog {
		rng := rand.New(rand.NewSource(seed))
		hours := u.InteractiveHours
		if hours > SimHours {
			hours = SimHours
		}
		// Pressure propensity from how hard the user drives the device.
		ramMiB := float64(u.RAM) / float64(units.MiB)
		load := u.AppMiB * float64(u.MultitaskApps) / ramMiB
		util := stats.Clamp(0.45+0.35*load+0.15*rng.Float64(), 0.2, 0.97)
		high := stats.Clamp(0.5*(util-0.55)+0.1*rng.Float64(), 0, 0.85)

		log := &DeviceLog{
			User:              u,
			ObservedHours:     hours,
			MedianUtilization: util,
			SignalsPerHour:    make(map[proc.Level]float64),
			TimeShare:         make(map[proc.Level]float64),
			AvailableByLevel:  make(map[proc.Level][]float64),
		}
		log.TimeShare[proc.Moderate] = high * 0.6
		log.TimeShare[proc.Low] = high * 0.25
		log.TimeShare[proc.Critical] = high * 0.15
		log.TimeShare[proc.Normal] = 1 - high
		if high > 0.001 {
			log.SignalsPerHour[proc.Moderate] = 40 * high * (0.5 + rng.Float64())
			log.SignalsPerHour[proc.Low] = 15 * high * (0.5 + rng.Float64())
			log.SignalsPerHour[proc.Critical] = 25 * high * high * (0.5 + rng.Float64())
		}
		for _, lvl := range []proc.Level{proc.Normal, proc.Moderate, proc.Low, proc.Critical} {
			avail := ramMiB * (1 - util) * (1.2 - 0.3*float64(lvl))
			for k := 0; k < 4; k++ {
				log.AvailableByLevel[lvl] = append(log.AvailableByLevel[lvl], stats.Clamp(avail*(0.5+rng.Float64()), 0, ramMiB))
			}
		}
		levels := []proc.Level{proc.Normal, proc.Moderate, proc.Low, proc.Critical}
		cur := proc.Normal
		for k := 0; k < 6+rng.Intn(6); k++ {
			next := levels[rng.Intn(len(levels))]
			if next == cur {
				continue
			}
			log.Transitions = append(log.Transitions, Transition{
				From: cur, To: next,
				Dwell: time.Duration(1+rng.Intn(600)) * time.Second,
			})
			cur = next
		}
		return log
	}
}
