// Package simclock implements the discrete-event simulation kernel: it
// drives the Android device model and the virtual-time overload
// simulator (loadgen.RunSim) alike.
//
// All simulator packages share one Clock. Time is virtual: it advances
// only when the event loop dispatches the next scheduled event, so a
// simulated two-minute video session runs in milliseconds of wall time
// and is fully deterministic for a given seed.
//
// The clock supports one-shot events (Schedule/At), repeating events
// (Every), and cancellation. Events at the same instant fire in the
// order they were scheduled, which keeps runs reproducible.
//
// A periodic source of work can skip instants at which it would only
// repeat itself. Horizon(e) tells the callback of event e how far it
// may look ahead: to the next other queued event, one past the
// deadline of the RunUntil in progress, or no further than now once
// Stop was called. Postpone(e, t) then moves e to any t strictly
// before that horizon, keeping its sequence number, so dispatch order
// among events is unchanged: nothing else can fire between e's old and
// new times, and none of the skipped instants is visible to a caller of
// RunUntil. The scheduler's tick (internal/sched) is the user.
//
// The implementation is a hand-rolled binary heap over slab-allocated
// events: the dispatch loop is the single hottest path of the whole
// simulator, so it avoids container/heap's interface dispatch, allocates
// events in chunks instead of one at a time, re-arms periodic events in
// place (no pop+push), lets the scheduler re-queue its own fired tick
// event (RequeueTick), and removes canceled events immediately rather
// than letting them age through the queue.
package simclock

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Clock is a discrete-event virtual clock. It is not safe for concurrent
// use: the simulation is single-goroutine by design so that runs are
// deterministic.
type Clock struct {
	now     time.Duration
	queue   []*Event
	seq     uint64
	rng     *rand.Rand
	stopped bool

	// slab is the current event allocation chunk: events are handed out
	// from fixed-capacity chunks so scheduling doesn't pay one heap
	// allocation per event. The clock never recycles an event — a fired
	// event's handle stays valid (callers may Cancel it long after it
	// fired), so a free list would hand two owners the same struct. The
	// one exception is owner-held: RequeueTick lets the scheduler, the
	// sole holder of its tick event, queue that fired event again.
	slab []Event

	// digest accumulates an FNV-1a hash over every dispatched event's
	// (time, seq, kind) when enabled — the event-order oracle that pins
	// the kernel's dispatch sequence across optimisations and worker
	// counts. Zero-cost when disabled: one boolean test per dispatch.
	digestOn bool
	digest   uint64
	// tickFree is the same hash over non-tick events only, keyed by ord
	// instead of seq (see ScheduleTick and TickFreeDigest); ord counts
	// non-tick schedulings, so it is blind to how many ticks ran.
	tickFree uint64
	ord      uint64

	// limit caps Horizon: one past the deadline of the RunUntil in
	// progress, math.MaxInt64 when no deadline bounds the run.
	limit time.Duration
}

// slabSize is the event-chunk length: large enough to amortize the
// chunk allocation to noise, small enough that a few live handles
// pinning a mostly-dead chunk waste little memory.
const slabSize = 256

// Event kinds as hashed into the dispatch digest.
const (
	digestOneShot  = 0
	digestPeriodic = 1
)

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Event is a handle to a scheduled callback. Cancel it to prevent firing.
type Event struct {
	at       time.Duration
	seq      uint64
	ord      uint64 // ordinal among non-tick schedulings; 0 for ticks
	fn       func()
	index    int32 // heap index; -1 when not queued (int32 keeps the struct at 56 bytes)
	canceled bool
	tick     bool          // scheduled with ScheduleTick
	period   time.Duration // >0 for repeating events
	clock    *Clock
}

// Cancel prevents the event from firing (and from repeating), removing
// it from the queue immediately. Canceling an already-fired one-shot
// event is a no-op.
func (e *Event) Cancel() {
	if e == nil {
		return
	}
	e.canceled = true
	if e.index >= 0 {
		e.clock.remove(int(e.index))
	}
}

// Canceled reports whether Cancel has been called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// When returns the virtual time at which the event will next fire.
func (e *Event) When() time.Duration { return e.at }

// less orders the queue by (time, seq): same-instant events fire in
// scheduling order.
func (c *Clock) less(i, j int) bool {
	a, b := c.queue[i], c.queue[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (c *Clock) swap(i, j int) {
	c.queue[i], c.queue[j] = c.queue[j], c.queue[i]
	c.queue[i].index = int32(i)
	c.queue[j].index = int32(j)
}

func (c *Clock) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !c.less(i, parent) {
			return
		}
		c.swap(i, parent)
		i = parent
	}
}

func (c *Clock) siftDown(i int) {
	n := len(c.queue)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && c.less(right, left) {
			least = right
		}
		if !c.less(least, i) {
			return
		}
		c.swap(i, least)
		i = least
	}
}

func (c *Clock) push(e *Event) {
	e.index = int32(len(c.queue))
	c.queue = append(c.queue, e)
	c.siftUp(int(e.index))
}

// popRoot removes and returns the earliest event.
func (c *Clock) popRoot() *Event {
	e := c.queue[0]
	n := len(c.queue) - 1
	c.queue[0] = c.queue[n]
	c.queue[0].index = 0
	c.queue[n] = nil
	c.queue = c.queue[:n]
	if n > 1 {
		c.siftDown(0)
	}
	e.index = -1
	return e
}

// remove deletes the event at heap index i, restoring heap order.
func (c *Clock) remove(i int) {
	e := c.queue[i]
	n := len(c.queue) - 1
	if i != n {
		moved := c.queue[n]
		c.queue[i] = moved
		moved.index = int32(i)
		c.queue[n] = nil
		c.queue = c.queue[:n]
		c.siftDown(i)
		c.siftUp(int(moved.index))
	} else {
		c.queue[n] = nil
		c.queue = c.queue[:n]
	}
	e.index = -1
}

// newEvent hands out one event from the current slab chunk, starting a
// fresh chunk when full. Appending within capacity never moves the
// backing array, so returned pointers stay valid. Each call takes a new
// slot; only RequeueTick puts an already-used event back in the queue.
func (c *Clock) newEvent() *Event {
	if len(c.slab) == cap(c.slab) {
		c.slab = make([]Event, 0, slabSize)
	}
	c.slab = append(c.slab, Event{})
	return &c.slab[len(c.slab)-1]
}

// New returns a clock at virtual time zero with a deterministic RNG
// seeded by seed.
func New(seed int64) *Clock {
	return &Clock{rng: rand.New(rand.NewSource(seed)), limit: math.MaxInt64}
}

// Now returns the current virtual time (duration since simulation start).
func (c *Clock) Now() time.Duration { return c.now }

// Rand returns the clock's deterministic random source. All stochastic
// model components must draw from this source (never the global rand)
// so that a seed fully determines a run.
func (c *Clock) Rand() *rand.Rand { return c.rng }

// EnableDigest starts accumulating the event-order digest: an FNV-1a
// hash folded over (fire time, sequence number, kind) of every event
// dispatched from this point on. Two runs that dispatch the same events
// in the same order produce the same digest; any reordering, insertion
// or loss changes it. Enabling is idempotent and read-only with respect
// to the simulation — a run's trajectory is identical with the digest
// on or off. It also starts the tick-free digest (TickFreeDigest).
func (c *Clock) EnableDigest() {
	if !c.digestOn {
		c.digestOn = true
		c.digest = fnvOffset64
		c.tickFree = fnvOffset64
	}
}

// Digest returns the accumulated event-order digest (0 when disabled).
func (c *Clock) Digest() uint64 {
	if !c.digestOn {
		return 0
	}
	return c.digest
}

// TickFreeDigest returns the event-order digest over non-tick events
// (0 when disabled): the same hash as Digest, folded over (fire time,
// ordinal among non-tick schedulings, kind) of every dispatched event
// not scheduled with ScheduleTick. It pins the order of everything the
// scheduler's ticks drive while staying blind to how many ticks were
// dispatched, so it holds across changes that remove idle ticks.
func (c *Clock) TickFreeDigest() uint64 {
	if !c.digestOn {
		return 0
	}
	return c.tickFree
}

// noteDispatch folds one dispatched event into the digests.
func (c *Clock) noteDispatch(e *Event, kind byte) {
	c.digest = fold(c.digest, e.at, e.seq, kind)
	if !e.tick {
		c.tickFree = fold(c.tickFree, e.at, e.ord, kind)
	}
}

// fold hashes one (time, sequence, kind) triple into h, FNV-1a style.
func fold(h uint64, at time.Duration, seq uint64, kind byte) uint64 {
	x := uint64(at)
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * fnvPrime64
		x >>= 8
	}
	x = seq
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * fnvPrime64
		x >>= 8
	}
	return (h ^ uint64(kind)) * fnvPrime64
}

// Schedule runs fn after delay d. It returns a cancelable handle.
// A negative delay is treated as zero (fire at the current instant,
// after already-queued events for this instant).
func (c *Clock) Schedule(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return c.At(c.now+d, fn)
}

// ScheduleTick is Schedule for a scheduler tick: the event dispatches
// exactly like any other, but TickFreeDigest leaves it out and it takes
// no ordinal from the non-tick events scheduled after it.
func (c *Clock) ScheduleTick(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return c.at(c.now+d, fn, true)
}

// RequeueTick queues the fired one-shot tick event e again, d from now
// (a negative d counts as zero), with the callback it had. It gives e
// the time and sequence number ScheduleTick(d, fn) would give a fresh
// event and pushes it the same way, so dispatch order and both digests
// are exactly those of a ScheduleTick call; only the allocation is
// saved. The caller must be e's sole holder, because every handle to e
// now names the new firing. RequeueTick panics if e is queued, periodic,
// canceled, not a tick, or from another clock.
func (c *Clock) RequeueTick(e *Event, d time.Duration) {
	if e.index >= 0 || e.period > 0 || e.canceled || !e.tick || e.clock != c {
		panic("simclock: RequeueTick needs a fired one-shot tick event of this clock")
	}
	if d < 0 {
		d = 0
	}
	e.at = c.now + d
	e.seq = c.seq
	c.seq++
	c.push(e)
}

// At runs fn at absolute virtual time t. Times in the past are clamped
// to now.
func (c *Clock) At(t time.Duration, fn func()) *Event { return c.at(t, fn, false) }

func (c *Clock) at(t time.Duration, fn func(), tick bool) *Event {
	if fn == nil {
		panic("simclock: At called with nil callback")
	}
	if t < c.now {
		t = c.now
	}
	e := c.newEvent()
	*e = Event{at: t, seq: c.seq, fn: fn, index: -1, tick: tick, clock: c}
	c.seq++
	if !tick {
		e.ord = c.ord
		c.ord++
	}
	c.push(e)
	return e
}

// Every runs fn every period, with the first firing after one period.
// The returned handle cancels all future firings.
func (c *Clock) Every(period time.Duration, fn func()) *Event {
	if period <= 0 {
		panic(fmt.Sprintf("simclock: Every called with non-positive period %v", period))
	}
	e := c.Schedule(period, fn)
	e.period = period
	return e
}

// Horizon returns how far the queued event self may be postponed: the
// time of the earliest other queued event, capped at one past the
// deadline of the RunUntil in progress. It is math.MaxInt64 when
// neither bounds it (Run, with self the only event queued), and the
// current time once Stop has been called, because the run ends after
// the in-flight event and the caller may schedule anything before
// resuming it. O(1): the earliest other event is the heap root or, when
// self is the root, one of its two children.
func (c *Clock) Horizon(self *Event) time.Duration {
	if c.stopped {
		return c.now
	}
	h := c.limit
	q := c.queue
	if len(q) > 0 && q[0] != self {
		return min(h, q[0].at)
	}
	for i := 1; i <= 2 && i < len(q); i++ {
		h = min(h, q[i].at)
	}
	return h
}

// Postpone moves the queued one-shot event e to the later time t,
// keeping its sequence number. t must lie strictly before Horizon(e),
// so no other event and no deadline of the RunUntil in progress falls
// between e's old and new times: the move changes when e fires, never
// the order in which events fire. A periodic source of work (such as a
// scheduler tick) uses it to skip instants at which it knows it would
// do nothing but repeat the same accounting, which it then catches up
// on when e fires. Postpone panics if e is not a queued one-shot event
// or t breaks the bound.
func (c *Clock) Postpone(e *Event, t time.Duration) {
	if e.index < 0 || e.period > 0 {
		panic("simclock: Postpone needs a queued one-shot event")
	}
	if t < e.at || t >= c.Horizon(e) {
		panic(fmt.Sprintf("simclock: Postpone to %v outside [%v, Horizon)", t, e.at))
	}
	// e fires before every other event both before and after the move,
	// so it is and stays the heap root.
	e.at = t
}

// Pending returns the number of events waiting in the queue. Canceled
// events are removed immediately, so they never count.
func (c *Clock) Pending() int { return len(c.queue) }

// Stop makes the current Run/RunUntil call return after the in-flight
// event completes.
func (c *Clock) Stop() { c.stopped = true }

// RunUntil dispatches events in time order until the queue is empty or
// the next event would fire after deadline. The clock is left at
// min(deadline, last event time): if events remain past the deadline,
// time is advanced exactly to the deadline.
func (c *Clock) RunUntil(deadline time.Duration) {
	c.stopped = false
	if deadline < math.MaxInt64 {
		c.limit = deadline + 1
	}
	defer func() { c.limit = math.MaxInt64 }()
	for len(c.queue) > 0 && !c.stopped {
		next := c.queue[0]
		if next.at > deadline {
			break
		}
		c.now = next.at
		if c.digestOn {
			kind := byte(digestOneShot)
			if next.period > 0 {
				kind = digestPeriodic
			}
			c.noteDispatch(next, kind)
		}
		if next.period > 0 {
			// Re-arm in place before running, so the callback can Cancel
			// it: the event stays queued, only its key changes, and one
			// siftDown restores order (it can only move later).
			next.at += next.period
			next.seq = c.seq
			c.seq++
			next.ord = c.ord
			c.ord++
			c.siftDown(0)
		} else {
			c.popRoot()
		}
		next.fn()
	}
	if c.now < deadline {
		c.now = deadline
	}
}

// Run dispatches events until the queue is empty or Stop is called.
// It panics if a repeating event is queued, because the run would never
// terminate.
func (c *Clock) Run() {
	c.stopped = false
	for len(c.queue) > 0 && !c.stopped {
		next := c.queue[0]
		if next.period > 0 {
			panic("simclock: Run would never terminate with a repeating event queued; use RunUntil")
		}
		c.popRoot()
		c.now = next.at
		if c.digestOn {
			c.noteDispatch(next, digestOneShot)
		}
		next.fn()
	}
}
