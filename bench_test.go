// Benchmarks of the System's request paths: cold and warm plans, the
// skip replacement, the plan cache and per-user state. The paper's
// experiments are benchmarked in internal/experiments
// (BenchmarkExperiments).
package pphcr_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pphcr"
	"pphcr/internal/feedback"
	"pphcr/internal/obs"
	"pphcr/internal/plancache"
	"pphcr/internal/predict"
	"pphcr/internal/recommend"
	"pphcr/internal/synth"
	"pphcr/internal/trajectory"
)

// ---- Proactive plan-warming benchmarks -------------------------------
//
// BenchmarkPlanTripCold runs the full predict→rank→allocate pipeline on
// every iteration (the cache is emptied first); BenchmarkPlanTripWarm
// serves the same request from the warm plan cache. The gap between the
// two is the latency the precompute subsystem removes from the request
// path.

type planBenchEnv struct {
	sys     *pphcr.System
	user    string
	partial trajectory.Trace
	now     time.Time
}

var (
	planEnvOnce sync.Once
	planEnv     *planBenchEnv
	planEnvErr  error
)

func getPlanEnv(b *testing.B) *planBenchEnv {
	b.Helper()
	planEnvOnce.Do(func() {
		w, err := synth.GenerateWorld(synth.Params{
			Seed: 21, Days: 5, Users: 2, Stations: 2, PodcastsPerDay: 40,
			TrainingDocsPerCategory: 8,
		})
		if err != nil {
			planEnvErr = err
			return
		}
		sys, err := pphcr.NewWorld(w, 1)
		if err != nil {
			planEnvErr = err
			return
		}
		persona := w.Personas[0]
		user := persona.Profile.UserID
		if err := sys.RegisterUser(persona.Profile); err != nil {
			planEnvErr = err
			return
		}
		if err := sys.IngestAll(w.Corpus); err != nil {
			planEnvErr = err
			return
		}
		commutes, err := w.Commutes(persona, w.Params.StartDate, w.Params.Days)
		if err != nil {
			planEnvErr = err
			return
		}
		if err := sys.RecordTrace(user, commutes); err != nil {
			planEnvErr = err
			return
		}
		if _, err := sys.CompactTracking(user); err != nil {
			planEnvErr = err
			return
		}
		day := w.Params.StartDate.AddDate(0, 0, 7)
		full, _, err := w.CommuteTrace(persona, day, true)
		if err != nil {
			planEnvErr = err
			return
		}
		partial := full.Head(3 * time.Minute)
		planEnv = &planBenchEnv{
			sys: sys, user: user,
			partial: partial, now: partial[len(partial)-1].Time,
		}
	})
	if planEnvErr != nil {
		b.Fatal(planEnvErr)
	}
	return planEnv
}

func BenchmarkPlanTripCold(b *testing.B) {
	env := getPlanEnv(b)
	var lat obs.Histogram
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.sys.PlanCache.InvalidateUser(env.user)
		t0 := time.Now()
		tp, err := env.sys.PlanTrip(env.user, env.partial, env.now, nil)
		lat.Observe(time.Since(t0))
		if err != nil {
			b.Fatal(err)
		}
		if tp.Source != pphcr.PlanSourceCold {
			b.Fatalf("source = %q", tp.Source)
		}
	}
	b.ReportMetric(float64(lat.Snapshot().Quantile(0.99)), "p99-ns/op")
}

func BenchmarkPlanTripWarm(b *testing.B) {
	env := getPlanEnv(b)
	// Prime the cache, then every iteration is a warm serve.
	if _, err := env.sys.PlanTrip(env.user, env.partial, env.now, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp, err := env.sys.PlanTrip(env.user, env.partial, env.now, nil)
		if err != nil {
			b.Fatal(err)
		}
		if tp.Source != pphcr.PlanSourceWarm {
			b.Fatalf("source = %q", tp.Source)
		}
	}
}

// BenchmarkSkipReplacement measures picking the one replacement clip
// after a manual skip for a listener with a broad preference vector:
// the pre-pipeline algorithm ranked (and sorted) the entire candidate
// list via Recommend(user, ctx, 0) and scanned for the first unskipped
// item; the Rank stage's k=1 bounded heap selects it directly.
func BenchmarkSkipReplacement(b *testing.B) {
	env := getPlanEnv(b)
	sys := env.sys
	const user = "skip-bench-user"
	now := env.now
	// A listener with established taste across every category, plus a few
	// skips: the realistic worst case for the full-rank scan.
	seen := map[string]bool{}
	skips := 0
	for _, it := range sys.Repo.All() {
		cat := it.TopCategory()
		kind := feedback.Like
		if !seen[cat] {
			seen[cat] = true
		} else if skips < 5 {
			kind = feedback.Skip
			skips++
		} else {
			continue
		}
		if err := sys.AddFeedback(feedback.Event{
			UserID: user, ItemID: it.ID, Kind: kind,
			At: now.Add(-2 * time.Hour), Categories: it.Categories,
		}); err != nil {
			b.Fatal(err)
		}
	}
	ctx := recommend.Context{Now: now}
	b.Run("fullrank", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			skipped := sys.Feedback.SkippedItems(user)
			var picked recommend.Scored
			for _, sc := range sys.Recommend(user, ctx, 0) {
				if seq, _ := sys.Repo.Seq(sc.Item.ID); !skipped.Has(seq, sc.Item.ID) {
					picked = sc
					break
				}
			}
			if picked.Item == nil {
				b.Fatal("no replacement")
			}
		}
	})
	b.Run("topk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// A skip of an unknown clip records no feedback: this is the
			// pure replacement query through the k=1 heap.
			sc, err := sys.SkipClip(user, "bench-nonexistent-clip", ctx)
			if err != nil {
				b.Fatal(err)
			}
			if sc.Item == nil {
				b.Fatal("no replacement")
			}
		}
	})
}

// BenchmarkPlanCacheConcurrent measures the sharded cache itself under
// parallel mixed load (15/16 reads, 1/16 writes across 64 users).
func BenchmarkPlanCacheConcurrent(b *testing.B) {
	c := plancache.New(plancache.Config{})
	keys := make([]plancache.Key, 0, 64*16)
	for u := 0; u < 64; u++ {
		for d := 0; d < 16; d++ {
			keys = append(keys, plancache.Key{
				User:   fmt.Sprintf("user-%03d", u),
				Dest:   predict.PlaceID(d),
				Bucket: predict.TimeBucket(d % 12),
			})
		}
	}
	for _, k := range keys {
		c.Put(k, &pphcr.TripPlan{})
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			k := keys[i%len(keys)]
			if i%16 == 0 {
				c.Put(k, &pphcr.TripPlan{})
			} else {
				c.Get(k)
			}
			i++
		}
	})
}

// ---- Sharded per-user state benchmarks --------------------------------
//
// BenchmarkConcurrentUserState hammers the striped per-user state and
// the incremental preference index with a parallel mixed workload across
// 256 users (3/4 preference reads and plan/injection lookups, 1/4
// feedback appends). Under the seed's single global mutex every pair of
// operations serialized; with striping plus the O(categories) index the
// throughput should scale with cores.
func BenchmarkConcurrentUserState(b *testing.B) {
	env := getPlanEnv(b)
	sys := env.sys
	users := make([]string, 256)
	for i := range users {
		users[i] = fmt.Sprintf("bench-user-%03d", i)
	}
	cats := map[string]float64{"food": 0.6, "music": 0.4}
	now := env.now
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(seq.Add(1))
			u := users[i%len(users)]
			switch i % 4 {
			case 0:
				_ = sys.AddFeedback(feedback.Event{
					UserID: u, ItemID: "it", Kind: feedback.ImplicitListen,
					At: now.Add(time.Duration(i) * time.Millisecond), Categories: cats,
				})
			case 1:
				sys.Preferences(u, now.Add(time.Duration(i)*time.Millisecond))
			case 2:
				sys.LastPlan(u)
			default:
				sys.PendingInjections(u)
			}
		}
	})
}
