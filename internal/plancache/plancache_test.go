package plancache

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"pphcr/internal/predict"
)

func key(user string, dest, bucket int) Key {
	return Key{User: user, Dest: predict.PlaceID(dest), Bucket: predict.TimeBucket(bucket)}
}

// fakeClock lets tests drive TTL expiry deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

func newTestCache() (*Cache, *fakeClock) {
	clk := &fakeClock{t: time.Date(2016, 11, 14, 8, 0, 0, 0, time.UTC)}
	return New(Config{Now: clk.now}), clk
}

func TestPutGetHitMiss(t *testing.T) {
	c, _ := newTestCache()
	k := key("lilly", 1, 2)
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache returned a value")
	}
	c.Put(k, "plan-a")
	v, ok := c.Get(k)
	if !ok || v.(string) != "plan-a" {
		t.Fatalf("get = %v %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.HitRate != 0.5 {
		t.Fatalf("hit rate = %v", st.HitRate)
	}
}

func TestTTLExpiry(t *testing.T) {
	c, clk := newTestCache()
	k := key("lilly", 0, 0)
	c.Put(k, 1)
	clk.advance(ttl - time.Second)
	if _, ok := c.Get(k); !ok {
		t.Fatal("entry expired early")
	}
	clk.advance(2 * time.Second)
	if _, ok := c.Get(k); ok {
		t.Fatal("expired entry served")
	}
	st := c.Stats()
	if st.Stale != 1 || st.Evictions != 1 || st.Entries != 0 {
		t.Fatalf("stats after expiry = %+v", st)
	}
}

func TestEpochInvalidation(t *testing.T) {
	c, _ := newTestCache()
	for i := 0; i < 10; i++ {
		c.Put(key("u", i, 0), i)
	}
	c.InvalidateAll()
	if _, ok := c.Get(key("u", 3, 0)); ok {
		t.Fatal("epoch-stale entry served")
	}
	// A fresh Put after the bump is servable.
	c.Put(key("u", 3, 0), "new")
	if v, ok := c.Get(key("u", 3, 0)); !ok || v.(string) != "new" {
		t.Fatalf("post-bump get = %v %v", v, ok)
	}
	// Sweep clears the rest of the stale generation.
	if removed := c.Sweep(); removed != 9 {
		t.Fatalf("sweep removed %d, want 9", removed)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

// TestInvalidateUser: the generation bump alone retires a user's
// entries. None is served or reported fresh afterwards, Sweep removes
// them, a value computed under the older snapshot and stored after the
// bump lands stale, and other users' entries are untouched.
func TestInvalidateUser(t *testing.T) {
	c, _ := newTestCache()
	for i := 0; i < 5; i++ {
		c.Put(key("lilly", i, 0), i)
		c.Put(key("greg", i, 0), i)
	}
	racing := c.Snapshot("lilly")
	c.InvalidateUser("lilly")
	c.InvalidateUser("nobody")
	c.PutVersioned(key("lilly", 9, 0), "computed before the bump", racing)
	for i := 0; i < 5; i++ {
		if c.Contains(key("lilly", i, 0)) {
			t.Fatalf("invalidated entry %d reported fresh", i)
		}
		if !c.Contains(key("greg", i, 0)) {
			t.Fatalf("other user's entry %d lost", i)
		}
	}
	if c.Contains(key("lilly", 9, 0)) {
		t.Fatal("racing put under the older snapshot reported fresh")
	}
	if removed := c.Sweep(); removed != 6 {
		t.Fatalf("sweep removed %d, want lilly's 5 entries and the racing put", removed)
	}
	if c.Len() != 5 {
		t.Fatalf("len = %d after sweep, want greg's 5", c.Len())
	}
	for i := 0; i < 5; i++ {
		if _, ok := c.GetIf(key("lilly", i, 0), nil); ok {
			t.Fatalf("invalidated entry %d served", i)
		}
	}
	c.Put(key("lilly", 0, 0), "after")
	if v, ok := c.Get(key("lilly", 0, 0)); !ok || v != "after" {
		t.Fatalf("put after the bump: %v %v", v, ok)
	}
}

func TestGetIfRejectEvicts(t *testing.T) {
	c, _ := newTestCache()
	k := key("u", 1, 1)
	c.Put(k, 100)
	v, ok := c.GetIf(k, func(v any) bool { return v.(int) > 200 })
	if ok {
		t.Fatalf("unusable entry served: %v", v)
	}
	if c.Len() != 0 {
		t.Fatal("rejected entry not evicted")
	}
	st := c.Stats()
	if st.Stale != 1 || st.Hits != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Usable entries pass through.
	c.Put(k, 300)
	if _, ok := c.GetIf(k, func(v any) bool { return v.(int) > 200 }); !ok {
		t.Fatal("usable entry rejected")
	}
}

func TestContains(t *testing.T) {
	c, clk := newTestCache()
	k := key("u", 1, 0)
	if c.Contains(k) {
		t.Fatal("contains on empty cache")
	}
	c.Put(k, 1)
	if !c.Contains(k) {
		t.Fatal("fresh entry not found")
	}
	clk.advance(ttl + time.Minute)
	if c.Contains(k) {
		t.Fatal("expired entry reported present")
	}
	// Contains must not move the hit/miss counters.
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("contains moved counters: %+v", st)
	}
}

// TestPutVersionedRaces pins the invalidation-race contract: a value
// computed from inputs sampled before an invalidation must land stale,
// even though the Put itself happens after the invalidation — for both
// the global epoch (InvalidateAll) and the per-user generation
// (InvalidateUser).
func TestPutVersionedRaces(t *testing.T) {
	c, _ := newTestCache()
	k := key("u", 1, 1)

	// Global: snapshot, then InvalidateAll races the computation.
	ver := c.Snapshot("u")
	c.InvalidateAll()
	c.PutVersioned(k, "stale-plan", ver)
	if _, ok := c.Get(k); ok {
		t.Fatal("pre-InvalidateAll value served as fresh")
	}
	if c.Contains(k) {
		t.Fatal("pre-InvalidateAll value reported fresh")
	}

	// Per-user: snapshot, then InvalidateUser races the computation.
	ver = c.Snapshot("u")
	c.InvalidateUser("u")
	c.PutVersioned(k, "stale-plan", ver)
	if _, ok := c.Get(k); ok {
		t.Fatal("pre-InvalidateUser value served as fresh")
	}
	// Another user's generation is untouched by u's invalidation.
	other := key("v", 1, 1)
	verOther := c.Snapshot("v")
	c.InvalidateUser("u")
	c.PutVersioned(other, "fresh-plan", verOther)
	if _, ok := c.Get(other); !ok {
		t.Fatal("other user's value lost to u's invalidation")
	}

	// A put stamped with the current snapshot is fresh.
	c.PutVersioned(k, "fresh-plan", c.Snapshot("u"))
	if v, ok := c.Get(k); !ok || v.(string) != "fresh-plan" {
		t.Fatalf("current-version put unusable: %v %v", v, ok)
	}
	// And Sweep removes version-stale entries eagerly.
	ver = c.Snapshot("u")
	c.InvalidateUser("u")
	c.PutVersioned(k, "stale-plan", ver)
	if removed := c.Sweep(); removed != 1 {
		t.Fatalf("sweep removed %d, want 1", removed)
	}
}

// TestInvalidateUserKeepsNoGenerationForStrangers: a write reaches
// users who never plan, and invalidating them must not grow the cache.
// Only Snapshot registers a user, and the race it guards still lands
// stale from a user's first Snapshot on: snapshot, invalidate, then the
// put of the value computed under that snapshot.
func TestInvalidateUserKeepsNoGenerationForStrangers(t *testing.T) {
	c, _ := newTestCache()
	for i := 0; i < 1000; i++ {
		c.InvalidateUser(fmt.Sprintf("listener-%d", i))
	}
	gens := func() int {
		n := 0
		for i := range c.shards {
			sh := &c.shards[i]
			sh.genMu.Lock()
			n += len(sh.gens)
			sh.genMu.Unlock()
		}
		return n
	}
	if n := gens(); n != 0 {
		t.Fatalf("%d generations kept for users who never took a snapshot", n)
	}
	k := key("first-plan", 1, 1)
	ver := c.Snapshot(k.User)
	c.InvalidateUser(k.User)
	c.PutVersioned(k, "computed before the bump", ver)
	if c.Contains(k) {
		t.Fatal("value computed under a first snapshot served fresh after an invalidation")
	}
	c.PutVersioned(k, "computed after the bump", c.Snapshot(k.User))
	if !c.Contains(k) {
		t.Fatal("value computed after the invalidation not served")
	}
	if n := gens(); n != 1 {
		t.Fatalf("%d generations kept, want the one user who took a snapshot", n)
	}
}

func TestDefaults(t *testing.T) {
	c := New(Config{})
	if got := c.Stats().Shards; got != 32 {
		t.Fatalf("shards = %d", got)
	}
	if c.TTL() != 10*time.Minute {
		t.Fatalf("ttl = %v", c.TTL())
	}
}

// TestConcurrent hammers the cache from many goroutines mixing every
// operation; run with -race. Invariant checks are minimal on purpose —
// the point is that shard locking and atomic counters keep the structure
// coherent under contention.
func TestConcurrent(t *testing.T) {
	c := New(Config{})
	const (
		goroutines = 16
		opsEach    = 2000
		users      = 8
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				k := key(fmt.Sprintf("user-%d", (g+i)%users), i%16, i%12)
				switch i % 7 {
				case 0:
					c.Put(k, i)
				case 1:
					c.InvalidateUser(k.User)
				case 2:
					c.Contains(k)
				case 3:
					c.GetIf(k, func(v any) bool { return v.(int)%2 == 0 })
				case 4:
					if i%500 == 0 {
						c.InvalidateAll()
					}
					c.Sweep()
				default:
					c.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("no lookups recorded")
	}
	if st.Entries != c.Len() {
		t.Fatalf("entries snapshot inconsistent: %d vs %d", st.Entries, c.Len())
	}
}

func TestInvalidationSplitCounters(t *testing.T) {
	c, _ := newTestCache()
	c.Put(key("lilly", 1, 2), "a")
	c.InvalidateAll()
	c.InvalidateUser("lilly")
	c.InvalidateUser("ghost")
	st := c.Stats()
	if st.EpochInvalidations != 1 {
		t.Fatalf("epoch invalidations = %d", st.EpochInvalidations)
	}
	if st.UserInvalidations != 2 {
		t.Fatalf("user invalidations = %d", st.UserInvalidations)
	}
}

func TestRewarmClock(t *testing.T) {
	c, clk := newTestCache()
	for i := 0; i < 3; i++ {
		c.Put(key("lilly", i, 0), i)
	}

	c.InvalidateAll()
	st := c.Stats()
	if !st.RewarmPending || st.Rewarms != 0 {
		t.Fatalf("after invalidate: %+v", st)
	}

	// Two of three puts back: still pending.
	c.Put(key("lilly", 0, 0), "r0")
	clk.advance(150 * time.Millisecond)
	c.Put(key("lilly", 1, 0), "r1")
	if st = c.Stats(); !st.RewarmPending {
		t.Fatalf("pending cleared after 2/3 puts: %+v", st)
	}

	// Third put completes the re-warm at the advanced clock.
	clk.advance(100 * time.Millisecond)
	c.Put(key("lilly", 2, 0), "r2")
	st = c.Stats()
	if st.RewarmPending {
		t.Fatalf("still pending after target puts: %+v", st)
	}
	if st.Rewarms != 1 {
		t.Fatalf("rewarms = %d", st.Rewarms)
	}
	if st.LastRewarmMillis != 250 {
		t.Fatalf("last rewarm = %vms, want 250", st.LastRewarmMillis)
	}
	if st.TotalRewarmMillis != 250 {
		t.Fatalf("total rewarm = %vms, want 250", st.TotalRewarmMillis)
	}

	// Extra puts after completion must not disturb the record.
	c.Put(key("lilly", 3, 0), "x")
	if st = c.Stats(); st.Rewarms != 1 || st.RewarmPending {
		t.Fatalf("post-completion put changed state: %+v", st)
	}
}

func TestRewarmEmptyCacheNotArmed(t *testing.T) {
	c, _ := newTestCache()
	c.InvalidateAll()
	st := c.Stats()
	if st.RewarmPending {
		t.Fatal("empty-cache invalidation armed a re-warm")
	}
	if st.EpochInvalidations != 1 {
		t.Fatalf("epoch invalidations = %d", st.EpochInvalidations)
	}
	// A put afterwards must not complete (or panic on) a phantom re-warm.
	c.Put(key("lilly", 1, 0), "a")
	if st = c.Stats(); st.Rewarms != 0 {
		t.Fatalf("phantom rewarm: %+v", st)
	}
}

func TestRewarmReArmRestartsClock(t *testing.T) {
	c, clk := newTestCache()
	c.Put(key("lilly", 0, 0), "a")
	c.Put(key("lilly", 1, 0), "b")

	c.InvalidateAll() // target 2
	clk.advance(time.Second)
	c.Put(key("lilly", 0, 0), "a2")

	c.InvalidateAll() // re-arm against the current warm set: a2 alone
	clk.advance(50 * time.Millisecond)
	c.Put(key("lilly", 0, 0), "a3")
	c.Put(key("lilly", 1, 0), "b3")
	st := c.Stats()
	if st.Rewarms != 1 || st.RewarmPending {
		t.Fatalf("after re-arm completion: %+v", st)
	}
	if st.LastRewarmMillis != 50 {
		t.Fatalf("last rewarm = %vms, want 50 (clock not restarted)", st.LastRewarmMillis)
	}
	if st.EpochInvalidations != 2 {
		t.Fatalf("epoch invalidations = %d", st.EpochInvalidations)
	}
}

// TestRewarmTargetCountsServableOnly: entries a user invalidation or an
// earlier epoch already retired were not warm, so they must not stretch
// the next epoch bump's re-warm target.
func TestRewarmTargetCountsServableOnly(t *testing.T) {
	c, clk := newTestCache()
	for i := 0; i < 4; i++ {
		c.Put(key("lilly", i, 0), i)
	}
	c.Put(key("greg", 0, 0), "g")
	c.InvalidateUser("lilly") // four stale entries stay until a sweep
	c.InvalidateAll()         // target: greg's one entry
	clk.advance(40 * time.Millisecond)
	c.Put(key("greg", 0, 0), "g2")
	st := c.Stats()
	if st.RewarmPending || st.Rewarms != 1 || st.LastRewarmMillis != 40 {
		t.Fatalf("re-warm after the one servable entry came back: %+v", st)
	}
	if st.EpochInvalidations != 1 || st.UserInvalidations != 1 {
		t.Fatalf("invalidations = %d epoch + %d user, want 1 + 1", st.EpochInvalidations, st.UserInvalidations)
	}
}
