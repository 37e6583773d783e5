// Package cdn is the serving-side delivery model: a segment cache with
// size-aware LRU eviction, frequency-based admission control and
// singleflight request coalescing, plus an HTTP chaos gate that maps
// the deterministic fault plans of internal/faults onto a real
// net/http serving path. Together they turn internal/dash's one-client
// test server into the CDN-shaped backend the paper's findings imply
// at scale: millions of devices do not hit one Apache box, they hit a
// cache hierarchy whose hit rate, admission policy and request
// collapsing decide what the origin actually sees (§4.1's testbed is
// the degenerate single-client case).
//
// Concurrency and determinism: every state transition of the Cache
// happens under one mutex, and nothing inside the package consults a
// clock or an RNG — LRU order is access order, admission is a pure
// request-count threshold, and coalescing keys off in-flight fills.
// Called from a single goroutine the cache is therefore a
// deterministic state machine over the request sequence (the
// "single-threaded mode" the unit tests drive: same Gets in, same
// hits/misses/evictions out, byte for byte). Under concurrency the
// mutex serializes transitions, so the same invariants hold per
// interleaving; only fills run outside the lock.
package cdn

import (
	"container/list"
	"sync"

	"coalqoe/internal/telemetry"
)

// Config shapes a Cache. The zero value is a pass-through: no
// capacity (nothing is admitted), no coalescing.
type Config struct {
	// Capacity bounds the total cached body bytes. Zero or negative
	// means nothing is ever stored — useful for a coalesce-only cache.
	Capacity int64
	// AdmitAfter is the number of requests (including the admitting
	// one) a key must accumulate before its body is cached: 1 admits on
	// first miss, the default 2 keeps one-hit wonders out (a key must
	// prove itself twice before it may displace a proven resident).
	AdmitAfter int
	// Coalesce collapses concurrent fills of the same key into one
	// origin generation; late arrivals wait for the leader's result.
	Coalesce bool
}

const (
	defaultAdmitAfter = 2
	// ghostSize bounds the doorkeeper table that tracks request counts
	// of not-yet-admitted keys. When it overflows, the
	// least-recently-requested ghost is forgotten and that key starts
	// counting from zero again.
	ghostSize = 4096
)

// Stats is a snapshot of the cache counters. Hits+Misses+Coalesced
// equals the total Get calls; Fills counts origin generations (the
// number acceptance tests pin to 1 under coalescing).
type Stats struct {
	Hits      int64 // served from cache
	Misses    int64 // led an origin fill
	Coalesced int64 // waited on another request's in-flight fill
	Fills     int64 // origin generations executed (successful or not)
	Admitted  int64 // bodies inserted into the cache
	Rejected  int64 // bodies denied admission (doorkeeper or oversize)
	Evictions int64 // residents displaced by LRU pressure
	Entries   int64 // current resident count
	Bytes     int64 // current resident body bytes
}

// Record writes the counters into reg as the dash.cache.* series, plus
// dash.cache.hit_rate: hits over all Get calls, 0 before the first.
func (s Stats) Record(reg *telemetry.Registry) {
	reg.Counter("dash.cache.hits").Add(s.Hits)
	reg.Counter("dash.cache.misses").Add(s.Misses)
	reg.Counter("dash.cache.coalesced").Add(s.Coalesced)
	reg.Counter("dash.cache.fills").Add(s.Fills)
	reg.Counter("dash.cache.admitted").Add(s.Admitted)
	reg.Counter("dash.cache.rejected").Add(s.Rejected)
	reg.Counter("dash.cache.evictions").Add(s.Evictions)
	reg.Gauge("dash.cache.entries").Set(float64(s.Entries))
	reg.Gauge("dash.cache.bytes").Set(float64(s.Bytes))
	hitRate := 0.0
	if total := s.Hits + s.Misses + s.Coalesced; total > 0 {
		hitRate = float64(s.Hits) / float64(total)
	}
	reg.Gauge("dash.cache.hit_rate").Set(hitRate)
}

// entry is one cached body on the LRU list.
type entry struct {
	key  string
	body []byte
}

// ghost is a doorkeeper record: how often a non-resident key has been
// requested recently.
type ghost struct {
	key   string
	count int
}

// flightCall is one in-progress origin fill that late arrivals of the
// same key can join. done is made, under the cache's mu, by the first
// caller to join, so a fill nobody joins makes no channel; the leader
// reads it under mu and closes it, if made, once the result is set.
type flightCall struct {
	done    chan struct{}
	body    []byte
	err     error
	waiters int
}

// Cache is a thread-safe, size-aware segment cache. Bodies handed out
// by Get are shared — callers must treat them as immutable.
type Cache struct {
	mu    sync.Mutex
	cfg   Config
	used  int64
	lru   list.List // of *entry; front = most recently used
	byKey map[string]*list.Element

	ghosts  list.List // of *ghost; front = most recently requested
	byGhost map[string]*list.Element

	flight map[string]*flightCall

	stats Stats
}

// New builds a cache. Defaults: AdmitAfter 2.
func New(cfg Config) *Cache {
	if cfg.AdmitAfter <= 0 {
		cfg.AdmitAfter = defaultAdmitAfter
	}
	c := &Cache{cfg: cfg, byKey: make(map[string]*list.Element), byGhost: make(map[string]*list.Element)}
	if cfg.Coalesce {
		c.flight = make(map[string]*flightCall)
	}
	return c
}

// Get returns the body for key, generating it with fill on a miss.
// The bool reports a cache hit. With coalescing enabled, concurrent
// Gets of one key run fill exactly once: the first caller generates,
// the rest block until the result (or error) is shared. Fill errors
// are never cached.
func (c *Cache) Get(key string, fill func() ([]byte, error)) ([]byte, bool, error) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		c.stats.Hits++
		body := el.Value.(*entry).body
		c.mu.Unlock()
		return body, true, nil
	}
	if c.flight != nil {
		if fc, ok := c.flight[key]; ok {
			if fc.done == nil {
				fc.done = make(chan struct{})
			}
			done := fc.done
			fc.waiters++
			c.stats.Coalesced++
			c.mu.Unlock()
			<-done
			return fc.body, false, fc.err
		}
		fc := &flightCall{}
		c.flight[key] = fc
		c.stats.Misses++
		c.mu.Unlock()

		body, err := fill()

		c.mu.Lock()
		c.stats.Fills++
		fc.body, fc.err = body, err
		delete(c.flight, key)
		if err == nil {
			// Every coalesced waiter was real demand for this key: credit
			// it all to the doorkeeper, or a heavily-collapsed key would
			// never look popular enough to admit.
			c.admit(key, body, 1+fc.waiters)
		}
		done := fc.done
		c.mu.Unlock()
		if done != nil {
			close(done)
		}
		return body, false, err
	}
	c.stats.Misses++
	c.mu.Unlock()

	body, err := fill()

	c.mu.Lock()
	c.stats.Fills++
	if err == nil {
		c.admit(key, body, 1)
	}
	c.mu.Unlock()
	return body, false, err
}

// admit decides whether a freshly generated body enters the cache.
// Caller holds mu. The doorkeeper counts requests per non-resident
// key; only a key seen AdmitAfter times is worth displacing residents
// for. Oversize bodies are rejected outright.
func (c *Cache) admit(key string, body []byte, demand int) {
	size := int64(len(body))
	if c.cfg.Capacity <= 0 || size > c.cfg.Capacity {
		c.stats.Rejected++
		return
	}
	count := c.bumpGhost(key, demand)
	if count < c.cfg.AdmitAfter {
		c.stats.Rejected++
		return
	}
	c.dropGhost(key)
	// A racing fill of the same key may have been admitted while this
	// body was generated (coalescing off); keep the resident.
	if _, ok := c.byKey[key]; ok {
		return
	}
	for c.used+size > c.cfg.Capacity {
		c.evictOldest()
	}
	c.byKey[key] = c.lru.PushFront(&entry{key: key, body: body})
	c.used += size
	c.stats.Admitted++
	c.stats.Entries = int64(len(c.byKey))
	c.stats.Bytes = c.used
}

// bumpGhost records demand more requests for a non-resident key and
// returns its count, trimming the doorkeeper to ghostSize.
func (c *Cache) bumpGhost(key string, demand int) int {
	if el, ok := c.byGhost[key]; ok {
		g := el.Value.(*ghost)
		g.count += demand
		c.ghosts.MoveToFront(el)
		return g.count
	}
	c.byGhost[key] = c.ghosts.PushFront(&ghost{key: key, count: demand})
	for c.ghosts.Len() > ghostSize {
		tail := c.ghosts.Back()
		delete(c.byGhost, tail.Value.(*ghost).key)
		c.ghosts.Remove(tail)
	}
	return demand
}

// dropGhost forgets a key's doorkeeper record (it became resident).
func (c *Cache) dropGhost(key string) {
	if el, ok := c.byGhost[key]; ok {
		c.ghosts.Remove(el)
		delete(c.byGhost, key)
	}
}

// evictOldest removes the least-recently-used resident. Caller holds
// mu; the cache must be non-empty. Evicted keys restart at the
// doorkeeper — re-admission takes AdmitAfter fresh requests.
func (c *Cache) evictOldest() {
	tail := c.lru.Back()
	if tail == nil {
		return
	}
	e := tail.Value.(*entry)
	c.lru.Remove(tail)
	delete(c.byKey, e.key)
	c.used -= int64(len(e.body))
	c.stats.Evictions++
	c.stats.Entries = int64(len(c.byKey))
	c.stats.Bytes = c.used
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Keys returns resident keys in LRU order, most recent first — the
// observable the deterministic eviction tests pin.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry).key)
	}
	return out
}

// Waiters reports how many Gets are blocked on key's in-flight fill —
// the hook the deterministic coalescing test uses to release the
// leader only once every follower is parked.
func (c *Cache) Waiters(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fc, ok := c.flight[key]; ok {
		return fc.waiters
	}
	return 0
}
