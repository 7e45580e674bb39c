// Package plancache is the sharded store of precomputed trip plans that
// makes the system's personalization genuinely *proactive* at scale:
// instead of running the full predict→rank→allocate pipeline inside every
// PlanTrip call, finished plans are cached keyed by (user, predicted
// destination, time-of-day bucket) — the three coordinates that determine
// a recommendation plan for an anticipated trip — and served in O(1) when
// the live prediction matches. The design follows the context-aware
// proactive-caching literature (Müller et al.): per-user differentiated
// entries, a TTL bounding content staleness, and event-driven
// invalidation (feedback, new content, re-compacted mobility) handled by
// the owning System and the precompute scheduler.
//
// The cache is sharded (FNV-1a over the key, 32 ways) so that
// concurrent warmers and request-path readers contend only per shard, and
// every counter is atomic: the /stats endpoint reads hit/miss/stale/
// eviction totals without stopping traffic.
package plancache

import (
	"sync"
	"sync/atomic"
	"time"

	"pphcr/internal/predict"
)

// Key identifies one precomputed plan: who is travelling, where the
// mobility model says they are going, and in which time-of-day bucket the
// trip starts (the bucket conditions both the Markov transition and the
// plan's candidate set).
type Key struct {
	User   string
	Dest   predict.PlaceID
	Bucket predict.TimeBucket
}

// Config tunes a Cache.
type Config struct {
	// Now overrides the clock (tests). Nil means time.Now.
	Now func() time.Time
}

const (
	// shardCount is the number of independently locked segments.
	shardCount = 32
	// ttl bounds how long a cached plan may be served: short enough
	// that the candidate clip set cannot drift far.
	ttl = 10 * time.Minute
)

type entry struct {
	value    any
	ver      Version
	storedAt time.Time
	expires  time.Time
}

type shard struct {
	mu sync.RWMutex
	m  map[Key]entry
	// gens holds the invalidation generation of every user whose keys
	// hash (by user alone) into this shard and who took a Snapshot;
	// bumped by InvalidateUser.
	genMu sync.Mutex
	gens  map[string]uint64
}

// Version identifies the invalidation state a value was computed under:
// the global epoch and the owning user's generation. Capture it with
// Snapshot *before* sampling the inputs a value is computed from, and
// store with PutVersioned — an invalidation racing the computation then
// marks the entry stale instead of letting it masquerade as fresh.
type Version struct {
	Epoch   uint64
	UserGen uint64
}

// Cache is the sharded, TTL'd plan store. It is safe for concurrent use.
type Cache struct {
	cfg    Config
	shards []shard
	epoch  atomic.Uint64

	hits      atomic.Int64
	misses    atomic.Int64
	stale     atomic.Int64
	evictions atomic.Int64
	puts      atomic.Int64

	// Invalidation split: epoch bumps (InvalidateAll calls) versus
	// per-user drops (InvalidateUser calls). The flash-crowd scenario's
	// key signal is the epoch count plus the re-warm clock below.
	epochInvalidations atomic.Int64
	userInvalidations  atomic.Int64

	// Re-warm tracking: an epoch invalidation marks every live entry
	// stale at once; the time until the warm set is rebuilt (puts since
	// the bump reaching the entry count it staled) is the recovery signal
	// scenario runs and dashboards watch. rewarmArmed is the Put fast
	// path's lock-free check; the rest lives under rewarmMu. rewarmMu is
	// a leaf lock: it never holds (or is held under) a shard lock.
	rewarmArmed   atomic.Bool
	rewarmMu      sync.Mutex
	rewarmTarget  int64 // puts needed to declare the cache re-warmed
	rewarmPuts    int64
	rewarmStart   time.Time
	rewarms       atomic.Int64
	lastRewarmNs  atomic.Int64
	totalRewarmNs atomic.Int64
}

// New builds a cache. A nil Config.Now means time.Now.
func New(cfg Config) *Cache {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	c := &Cache{cfg: cfg, shards: make([]shard, shardCount)}
	for i := range c.shards {
		c.shards[i].m = make(map[Key]entry)
		c.shards[i].gens = make(map[string]uint64)
	}
	return c
}

// TTL reports how long a cached plan may be served.
func (c *Cache) TTL() time.Duration { return ttl }

// FNV-1a, inlined: shardFor sits on the request fast path and must not
// allocate (hash/fnv costs a hasher plus a byte slice per call).
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

func fnvString(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= fnvPrime32
	}
	return h
}

func fnvByte(h uint32, b byte) uint32 {
	h ^= uint32(b)
	h *= fnvPrime32
	return h
}

func (c *Cache) shardFor(k Key) *shard {
	h := fnvString(fnvOffset32, k.User)
	h = fnvByte(h, byte(k.Dest))
	h = fnvByte(h, byte(k.Dest>>8))
	h = fnvByte(h, byte(k.Dest>>16))
	h = fnvByte(h, byte(k.Dest>>24))
	h = fnvByte(h, byte(k.Bucket))
	return &c.shards[h%uint32(len(c.shards))]
}

// genShardFor hashes by user alone, so all of a user's generation
// lookups land on one shard regardless of destination and bucket.
func (c *Cache) genShardFor(user string) *shard {
	return &c.shards[fnvString(fnvOffset32, user)%uint32(len(c.shards))]
}

// Snapshot captures the invalidation state for a user's keys (see
// Version), and registers the user for InvalidateUser.
func (c *Cache) Snapshot(user string) Version {
	epoch := c.epoch.Load()
	sh := c.genShardFor(user)
	sh.genMu.Lock()
	g, ok := sh.gens[user]
	if !ok {
		sh.gens[user] = 0
	}
	sh.genMu.Unlock()
	return Version{Epoch: epoch, UserGen: g}
}

// Get returns the cached value for k, counting a hit or a miss. Entries
// past their TTL or from an invalidated epoch count as stale misses and
// are evicted.
func (c *Cache) Get(k Key) (any, bool) {
	return c.GetIf(k, nil)
}

// GetIf is Get with a caller-side usability check: an entry that is
// present and fresh but rejected by usable (e.g. a plan that no longer
// fits the live ΔT) counts as a stale miss and is evicted, so the caller
// can recompute and re-Put without the dead entry lingering.
func (c *Cache) GetIf(k Key, usable func(v any) bool) (any, bool) {
	sh := c.shardFor(k)
	now := c.cfg.Now()
	sh.mu.RLock()
	e, ok := sh.m[k]
	sh.mu.RUnlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	if e.ver != c.Snapshot(k.User) || now.After(e.expires) || (usable != nil && !usable(e.value)) {
		c.dropIfUnchanged(sh, k, e.storedAt)
		c.stale.Add(1)
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return e.value, true
}

// Contains reports whether a fresh entry exists for k without touching
// the hit/miss counters (used by the warmer to skip redundant work).
func (c *Cache) Contains(k Key) bool {
	sh := c.shardFor(k)
	now := c.cfg.Now()
	sh.mu.RLock()
	e, ok := sh.m[k]
	sh.mu.RUnlock()
	return ok && e.ver == c.Snapshot(k.User) && !now.After(e.expires)
}

// dropIfUnchanged removes k only if the stored entry is still the one the
// caller observed (identified by storedAt), so a concurrent re-Put wins.
func (c *Cache) dropIfUnchanged(sh *shard, k Key, storedAt time.Time) {
	sh.mu.Lock()
	if cur, ok := sh.m[k]; ok && cur.storedAt.Equal(storedAt) {
		delete(sh.m, k)
		c.evictions.Add(1)
	}
	sh.mu.Unlock()
}

// Put stores (replacing) the value for k with the cache's TTL,
// stamped with the current invalidation state.
func (c *Cache) Put(k Key, v any) {
	c.PutVersioned(k, v, c.Snapshot(k.User))
}

// PutVersioned stores the value stamped with a Version the caller
// captured before computing it (see Snapshot).
func (c *Cache) PutVersioned(k Key, v any, ver Version) {
	sh := c.shardFor(k)
	now := c.cfg.Now()
	e := entry{value: v, ver: ver, storedAt: now, expires: now.Add(ttl)}
	sh.mu.Lock()
	sh.m[k] = e
	sh.mu.Unlock()
	c.puts.Add(1)
	if c.rewarmArmed.Load() {
		c.noteRewarmPut(now)
	}
}

// noteRewarmPut credits one put toward the pending re-warm and closes
// the clock when the target is reached. Runs outside every shard lock.
func (c *Cache) noteRewarmPut(now time.Time) {
	c.rewarmMu.Lock()
	defer c.rewarmMu.Unlock()
	if c.rewarmTarget == 0 {
		return // raced with completion
	}
	c.rewarmPuts++
	if c.rewarmPuts < c.rewarmTarget {
		return
	}
	elapsed := now.Sub(c.rewarmStart).Nanoseconds()
	if elapsed < 0 {
		elapsed = 0
	}
	c.lastRewarmNs.Store(elapsed)
	c.totalRewarmNs.Add(elapsed)
	c.rewarms.Add(1)
	c.rewarmTarget = 0
	c.rewarmPuts = 0
	c.rewarmArmed.Store(false)
}

// InvalidateUser marks every entry belonging to user stale in O(1)
// (mobility model rebuilt, feedback shifted the preference vector, …)
// by bumping the user's generation: GetIf and Contains refuse an entry
// stamped with an older one, and a value computed before the
// invalidation but stored after it (by a racing warm worker holding an
// older Snapshot) lands stale too. Stale entries are evicted lazily on
// read, by Sweep, or replaced by the next Put of their key. A user who
// never took a Snapshot has no entry to invalidate and gets no generation.
func (c *Cache) InvalidateUser(user string) {
	c.userInvalidations.Add(1)
	gsh := c.genShardFor(user)
	gsh.genMu.Lock()
	if g, ok := gsh.gens[user]; ok {
		gsh.gens[user] = g + 1
	}
	gsh.genMu.Unlock()
}

// InvalidateAll marks every current entry stale in O(1) by bumping the
// cache epoch (used when new content changes every user's candidate set).
// Stale entries are evicted lazily on read or by Sweep.
//
// It also (re-)arms the re-warm clock: the entries servable at the bump
// are the warm set the invalidation destroyed, and the cache declares
// itself re-warmed after that many puts land — Stats then reports the
// elapsed time as LastRewarmMillis, the flash-crowd recovery signal. A
// second bump while a re-warm is pending restarts the clock against the
// current (possibly partially rebuilt) warm set.
func (c *Cache) InvalidateAll() {
	// Size the destroyed warm set before bumping. Entries already stale
	// (an earlier epoch, a user invalidated since they were stored,
	// expired) were not warm, and counting them would stretch the clock.
	target := int64(c.servable())
	c.epoch.Add(1)
	c.epochInvalidations.Add(1)
	if target == 0 {
		return // nothing was warm; nothing to re-warm
	}
	now := c.cfg.Now()
	c.rewarmMu.Lock()
	c.rewarmTarget = target
	c.rewarmPuts = 0
	c.rewarmStart = now
	c.rewarmMu.Unlock()
	c.rewarmArmed.Store(true)
}

// servable counts the entries GetIf would serve now.
func (c *Cache) servable() int {
	now := c.cfg.Now()
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for k, e := range sh.m {
			if e.ver == c.Snapshot(k.User) && !now.After(e.expires) {
				n++
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

// Sweep eagerly removes expired and version-stale entries, returning
// the number evicted. The warmer calls it on its housekeeping tick.
func (c *Cache) Sweep() int {
	now := c.cfg.Now()
	removed := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k, e := range sh.m {
			if e.ver != c.Snapshot(k.User) || now.After(e.expires) {
				delete(sh.m, k)
				removed++
			}
		}
		sh.mu.Unlock()
	}
	if removed > 0 {
		c.evictions.Add(int64(removed))
	}
	return removed
}

// Len returns the total number of entries (including not-yet-swept stale
// ones).
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Stats is a consistent-enough snapshot of the cache counters.
type Stats struct {
	Shards    int     `json:"shards"`
	Entries   int     `json:"entries"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Stale     int64   `json:"stale"`
	Evictions int64   `json:"evictions"`
	Puts      int64   `json:"puts"`
	HitRate   float64 `json:"hit_rate"`

	// Invalidations by kind and the re-warm clock (see InvalidateAll).
	EpochInvalidations int64   `json:"epoch_invalidations"`
	UserInvalidations  int64   `json:"user_invalidations"`
	Rewarms            int64   `json:"rewarms"`
	RewarmPending      bool    `json:"rewarm_pending"`
	LastRewarmMillis   float64 `json:"last_rewarm_millis"`
	TotalRewarmMillis  float64 `json:"total_rewarm_millis"`
}

// Stats snapshots the counters. HitRate is hits/(hits+misses), 0 when no
// lookups happened yet.
func (c *Cache) Stats() Stats {
	s := Stats{
		Shards:    len(c.shards),
		Entries:   c.Len(),
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Stale:     c.stale.Load(),
		Evictions: c.evictions.Load(),
		Puts:      c.puts.Load(),

		EpochInvalidations: c.epochInvalidations.Load(),
		UserInvalidations:  c.userInvalidations.Load(),
		Rewarms:            c.rewarms.Load(),
		RewarmPending:      c.rewarmArmed.Load(),
		LastRewarmMillis:   float64(c.lastRewarmNs.Load()) / 1e6,
		TotalRewarmMillis:  float64(c.totalRewarmNs.Load()) / 1e6,
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits) / float64(total)
	}
	return s
}
