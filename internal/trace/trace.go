// Package trace records scheduler activity in the way Google's Perfetto
// records it on a real Android device, so that the paper's §5 analyses
// can be rerun against the simulator.
//
// The paper derives three kinds of results from Perfetto traces:
//
//   - time spent by threads in each process state (Table 4, Figure 13),
//   - the top running threads ranked by total run time (§5 "Top running
//     threads"),
//   - preemption triples: how often a higher-priority thread preempted a
//     victim, how long the preemptor ran after the preemption, and how
//     long the victim waited to get the CPU back (Table 5).
//
// The Tracer therefore records per-thread state intervals and preemption
// events, and exposes query methods producing exactly those aggregates.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// State mirrors the scheduler states Perfetto reports. The names match
// the paper's Table 4 terminology.
type State int

// Thread states.
const (
	// Sleeping is interruptible sleep (S): the thread has no work.
	Sleeping State = iota
	// Runnable (R) is waiting for a CPU that is busy with other work.
	Runnable
	// RunnablePreempted is waiting for the CPU after having been
	// preempted by the kernel to schedule a higher-priority thread.
	RunnablePreempted
	// Running is executing on a core.
	Running
	// UninterruptibleSleep (D) is blocked on I/O, e.g. a page fault
	// being served by the storage device during direct reclaim.
	UninterruptibleSleep

	numStates
)

// String returns the paper's name for the state.
func (s State) String() string {
	switch s {
	case Sleeping:
		return "Sleeping"
	case Runnable:
		return "Runnable"
	case RunnablePreempted:
		return "Runnable (Preempted)"
	case Running:
		return "Running"
	case UninterruptibleSleep:
		return "Uninterruptible Sleep"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// ThreadKey identifies a thread in the trace.
type ThreadKey struct {
	TID     int
	Name    string // thread name, e.g. "MediaCodec", "kswapd0"
	Process string // owning process name, e.g. "org.mozilla.firefox"
}

// Preemption is one preemption event: preemptor displaced victim from a
// core at At; the preemptor then ran continuously for PreemptorRan; the
// victim regained a CPU after VictimWaited (zero values until resolved).
type Preemption struct {
	Victim       ThreadKey
	Preemptor    ThreadKey
	At           time.Duration
	PreemptorRan time.Duration
	VictimWaited time.Duration
	resolvedRun  bool
	resolvedWait bool
}

// threadRecord accumulates per-thread aggregates.
type threadRecord struct {
	key        ThreadKey
	state      State
	since      time.Duration
	inState    [numStates]time.Duration
	migrations int
	lastCore   int
	everRan    bool
}

// Tracer records thread scheduling activity. It is not safe for
// concurrent use; the simulation is single-goroutine.
type Tracer struct {
	started time.Duration
	now     time.Duration
	threads map[int]*threadRecord
	preempt []*Preemption
	// open preemptions indexed for resolution
	openRun  map[int][]*Preemption // preemptor TID -> events awaiting run length
	openWait map[int][]*Preemption // victim TID -> events awaiting wait length

	keepIntervals bool
	intervals     []Interval
}

// New returns an empty Tracer whose clock starts at start.
func New(start time.Duration) *Tracer {
	return &Tracer{
		started:  start,
		now:      start,
		threads:  make(map[int]*threadRecord),
		openRun:  make(map[int][]*Preemption),
		openWait: make(map[int][]*Preemption),
	}
}

// Register introduces a thread in the given initial state.
func (t *Tracer) Register(key ThreadKey, s State, now time.Duration) {
	t.advance(now)
	t.threads[key.TID] = &threadRecord{key: key, state: s, since: now, lastCore: -1}
}

// Unregister closes a thread's current interval (e.g. the process died).
func (t *Tracer) Unregister(tid int, now time.Duration) {
	t.advance(now)
	r, ok := t.threads[tid]
	if !ok {
		return
	}
	r.inState[r.state] += now - r.since
	r.since = now
	r.state = Sleeping
}

func (t *Tracer) advance(now time.Duration) {
	if now > t.now {
		t.now = now
	}
}

// Transition moves thread tid to state s at time now, closing the
// previous interval. core is the core the thread runs on when s is
// Running (used for migration counting); pass -1 otherwise.
func (t *Tracer) Transition(tid int, s State, core int, now time.Duration) {
	t.advance(now)
	r, ok := t.threads[tid]
	if !ok {
		return
	}
	if r.state != s {
		r.inState[r.state] += now - r.since
		if t.keepIntervals && now > r.since {
			t.intervals = append(t.intervals, Interval{Key: r.key, State: r.state, Start: r.since, End: now})
		}
		r.since = now
		r.state = s
	}
	if s == Running {
		if r.everRan && core != r.lastCore {
			r.migrations++
		}
		r.everRan = true
		r.lastCore = core
		t.resolveVictimWait(tid, now)
	}
}

// RecordPreemption notes that preemptor displaced victim at time now.
// The run/wait components are resolved by later Transition and
// PreemptorStopped calls.
func (t *Tracer) RecordPreemption(victim, preemptor ThreadKey, now time.Duration) {
	t.advance(now)
	p := &Preemption{Victim: victim, Preemptor: preemptor, At: now}
	t.preempt = append(t.preempt, p)
	t.openRun[preemptor.TID] = append(t.openRun[preemptor.TID], p)
	t.openWait[victim.TID] = append(t.openWait[victim.TID], p)
}

// PreemptorStopped records that thread tid stopped running at time now,
// closing the "ran after preemption" window of any preemption it caused.
func (t *Tracer) PreemptorStopped(tid int, now time.Duration) {
	t.advance(now)
	open := t.openRun[tid]
	if len(open) == 0 {
		return
	}
	for _, p := range open {
		p.PreemptorRan = now - p.At
		p.resolvedRun = true
	}
	delete(t.openRun, tid)
}

func (t *Tracer) resolveVictimWait(tid int, now time.Duration) {
	open := t.openWait[tid]
	if len(open) == 0 {
		return
	}
	for _, p := range open {
		p.VictimWaited = now - p.At
		p.resolvedWait = true
	}
	delete(t.openWait, tid)
}

// Finish closes all open intervals at time now. Call once at the end of
// a run before querying. Iteration is in sorted TID order so the
// closing intervals land in t.intervals deterministically — they are
// exported verbatim (KeepTrace), where map order would leak into the
// artifact.
func (t *Tracer) Finish(now time.Duration) {
	t.advance(now)
	for _, tid := range sortedTIDs(t.threads) {
		r := t.threads[tid]
		r.inState[r.state] += now - r.since
		if t.keepIntervals && now > r.since {
			t.intervals = append(t.intervals, Interval{Key: r.key, State: r.state, Start: r.since, End: now})
		}
		r.since = now
	}
	for _, tid := range sortedTIDs(t.openRun) {
		t.PreemptorStopped(tid, now)
	}
	for _, tid := range sortedTIDs(t.openWait) {
		t.resolveVictimWait(tid, now)
	}
}

// sortedTIDs returns the map's keys in ascending order.
func sortedTIDs[V any](m map[int]V) []int {
	tids := make([]int, 0, len(m))
	for tid := range m {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	return tids
}

// ThreadFilter selects threads for aggregate queries.
type ThreadFilter func(ThreadKey) bool

// ByProcess matches all threads of the named process.
func ByProcess(name string) ThreadFilter {
	return func(k ThreadKey) bool { return k.Process == name }
}

// ByName matches threads whose name contains substr.
func ByName(substr string) ThreadFilter {
	return func(k ThreadKey) bool { return strings.Contains(k.Name, substr) }
}

// AnyOf matches threads accepted by any of the filters.
func AnyOf(filters ...ThreadFilter) ThreadFilter {
	return func(k ThreadKey) bool {
		for _, f := range filters {
			if f(k) {
				return true
			}
		}
		return false
	}
}

// TimeInState sums the time matching threads spent in state s.
func (t *Tracer) TimeInState(f ThreadFilter, s State) time.Duration {
	var total time.Duration
	//coalvet:allow maporder integer Duration sum over threads, order-insensitive
	for _, r := range t.threads {
		if f(r.key) {
			total += r.inState[s]
		}
	}
	return total
}

// StateBreakdown returns the per-state totals for matching threads.
func (t *Tracer) StateBreakdown(f ThreadFilter) map[State]time.Duration {
	out := make(map[State]time.Duration, int(numStates))
	for s := State(0); s < numStates; s++ {
		out[s] = t.TimeInState(f, s)
	}
	return out
}

// ThreadRank is one row of the top-running-threads report.
type ThreadRank struct {
	Key        ThreadKey
	Running    time.Duration
	Migrations int
}

// TopRunning returns threads ranked by total Running time, descending.
// n ≤ 0 returns all threads.
func (t *Tracer) TopRunning(n int) []ThreadRank {
	ranks := make([]ThreadRank, 0, len(t.threads))
	//coalvet:allow maporder rows are fully ordered below by (Running, TID) before any truncation
	for _, r := range t.threads {
		ranks = append(ranks, ThreadRank{Key: r.key, Running: r.inState[Running], Migrations: r.migrations})
	}
	sort.Slice(ranks, func(i, j int) bool {
		if ranks[i].Running != ranks[j].Running {
			return ranks[i].Running > ranks[j].Running
		}
		return ranks[i].Key.TID < ranks[j].Key.TID
	})
	if n > 0 && n < len(ranks) {
		ranks = ranks[:n]
	}
	return ranks
}

// RankOf returns the 1-based rank of the named thread in the
// top-running order, or 0 if the thread is unknown.
func (t *Tracer) RankOf(name string) int {
	for i, r := range t.TopRunning(0) {
		if r.Key.Name == name {
			return i + 1
		}
	}
	return 0
}

// Migrations returns the core-migration count for thread tid.
func (t *Tracer) Migrations(tid int) int {
	if r, ok := t.threads[tid]; ok {
		return r.migrations
	}
	return 0
}

// PreemptionStats is the Table 5 triple for one preemptor against a set
// of victim threads.
type PreemptionStats struct {
	Count            int
	PreemptorRanFor  time.Duration // total run time after preemptions
	VictimsWaitedFor time.Duration // total victim wait to regain CPU
}

// PreemptionsBy aggregates preemption events where the preemptor matches
// pf and the victim matches vf.
func (t *Tracer) PreemptionsBy(pf, vf ThreadFilter) PreemptionStats {
	var s PreemptionStats
	for _, p := range t.preempt {
		if pf(p.Preemptor) && vf(p.Victim) {
			s.Count++
			s.PreemptorRanFor += p.PreemptorRan
			s.VictimsWaitedFor += p.VictimWaited
		}
	}
	return s
}

// Preemptions returns a copy of all recorded preemption events.
func (t *Tracer) Preemptions() []Preemption {
	out := make([]Preemption, len(t.preempt))
	for i, p := range t.preempt {
		out[i] = *p
	}
	return out
}

// Duration returns the traced time span.
func (t *Tracer) Duration() time.Duration { return t.now - t.started }
