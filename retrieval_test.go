package pphcr

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"pphcr/internal/ann"
	"pphcr/internal/content"
	"pphcr/internal/durable"
	"pphcr/internal/embed"
	"pphcr/internal/profile"
	"pphcr/internal/recommend"
	"pphcr/internal/synth"
)

// retrievalWorld pairs two Systems over the SAME catalog pointers: one
// on the exact window-scan Candidates stage, one on the ANN stage. The
// tiny synth world exists only to satisfy New's training-doc
// requirement; the catalog itself is generated directly so its size is
// controlled (retrievalCatalogSize — see retrieval_scale_*.go).
type retrievalWorld struct {
	exact  *System
	approx *System
	users  []string
	base   time.Time
	// off de-collides the (user, instant) warm-cache key across the
	// tests and benchmarks sharing this world: every Recommend call
	// takes a fresh offset so no call is ever warm-served.
	off int64
}

// next returns a unique query instant. The catalog is published inside
// the 4 h before base and the candidate window is days wide, so small
// forward offsets never change candidate membership.
func (w *retrievalWorld) next() time.Time {
	w.off++
	return w.base.Add(time.Duration(w.off) * time.Millisecond)
}

func buildRetrievalWorld(n, retrieve, users int) (*retrievalWorld, error) {
	sw, err := synth.GenerateWorld(synth.Params{
		Seed: 7, Days: 1, Users: 1, Stations: 1, PodcastsPerDay: 1,
		TrainingDocsPerCategory: 2,
	})
	if err != nil {
		return nil, err
	}
	cfg := Config{TrainingDocs: sw.Training, Vocabulary: sw.FlatVocab, Seed: 7}
	exact, err := New(cfg)
	if err != nil {
		return nil, err
	}
	acfg := cfg
	acfg.ANNCandidates = true
	acfg.ANNRetrieve = retrieve
	// Recall probes brute-scan the whole index; park them far out so the
	// speedup measurements time only the production search path.
	acfg.ANNProbeEvery = 1 << 20
	approx, err := New(acfg)
	if err != nil {
		return nil, err
	}

	w := &retrievalWorld{exact: exact, approx: approx,
		base: time.Date(2026, 3, 2, 12, 0, 0, 0, time.UTC)}
	rng := rand.New(rand.NewSource(7))
	span := 4 * time.Hour
	for i := 0; i < n; i++ {
		nc := 2 + rng.Intn(3)
		cats := make(map[string]float64, nc)
		total := 0.0
		for len(cats) < nc {
			c := content.Categories[rng.Intn(len(content.Categories))]
			if _, dup := cats[c]; dup {
				continue
			}
			cw := 0.2 + rng.Float64()
			cats[c] = cw
			total += cw
		}
		for c := range cats {
			cats[c] /= total
		}
		it := &content.Item{
			ID:       fmt.Sprintf("cat-%06d", i),
			Title:    fmt.Sprintf("bench item %d", i),
			Program:  "bench",
			Kind:     content.KindClip,
			Duration: 4 * time.Minute,
			// Publish inside a narrow 4 h span so freshness decay is near
			// uniform across the catalog and embedding similarity is the
			// deciding ranking signal.
			Published:   w.base.Add(-span + time.Duration(int64(i)*int64(span)/int64(n))),
			Categories:  cats,
			BitrateKbps: 96,
		}
		if err := exact.Repo.Add(it); err != nil {
			return nil, err
		}
		if err := approx.Repo.Add(it); err != nil {
			return nil, err
		}
	}
	for u := 0; u < users; u++ {
		id := fmt.Sprintf("bench-user-%02d", u)
		nc := len(content.Categories)
		p := profile.Profile{UserID: id, Interests: []string{
			content.Categories[(u*5)%nc],
			content.Categories[(u*5+1)%nc],
			content.Categories[(u*5+2)%nc],
		}}
		if err := exact.RegisterUser(p); err != nil {
			return nil, err
		}
		if err := approx.RegisterUser(p); err != nil {
			return nil, err
		}
		w.users = append(w.users, id)
	}
	return w, nil
}

// The full-size world is expensive (HNSW build over retrievalCatalogSize
// items), so the speedup test and both benchmarks share one instance.
var (
	retrievalOnce   sync.Once
	retrievalErr    error
	retrievalShared *retrievalWorld
)

func retrievalBenchWorld(t testing.TB) *retrievalWorld {
	t.Helper()
	retrievalOnce.Do(func() {
		retrievalShared, retrievalErr = buildRetrievalWorld(retrievalCatalogSize, 512, 16)
	})
	if retrievalErr != nil {
		t.Fatal(retrievalErr)
	}
	return retrievalShared
}

// TestANNEquivalenceSmallCatalog pins the exactness contract: with the
// retrieve budget at or above the catalog size, ann.Index.Search
// degrades to a brute scan, the ANN stage retrieves the entire window,
// and plans are byte-identical to the exact stage for every user and k.
func TestANNEquivalenceSmallCatalog(t *testing.T) {
	w, err := buildRetrievalWorld(400, 512, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{5, 25} {
		for _, u := range w.users {
			now := w.next()
			want := w.exact.Recommend(u, recommend.Context{Now: now}, k)
			got := w.approx.Recommend(u, recommend.Context{Now: now}, k)
			if len(want) == 0 {
				t.Fatalf("exact stage returned nothing for %s k=%d", u, k)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s k=%d: ANN plan diverges from exact\n ann:   %v\n exact: %v",
					u, k, planIDs(got), planIDs(want))
			}
		}
	}
	_, ix, ok := w.approx.RetrievalStats()
	if !ok {
		t.Fatal("retrieval stats unavailable on ANN system")
	}
	if ix.Searches == 0 || ix.Brute != ix.Searches {
		t.Fatalf("expected every search to take the exact-degradation path: brute=%d searches=%d",
			ix.Brute, ix.Searches)
	}
}

func planIDs(ranked []recommend.Scored) []string {
	ids := make([]string, len(ranked))
	for i, s := range ranked {
		ids[i] = s.Item.ID
	}
	return ids
}

// TestANNSpeedupAndRecall is the acceptance gate at scale: over a
// retrievalCatalogSize-item catalog the ANN stage must produce ≥95 %
// of the exact stage's top-10 (mean over users), and a sweep of
// requests through each stage must stay inside that stage's own cost
// bound (retrieval_scale_*.go). The two are bounded separately, not as
// a ratio: a ratio fails when the slower side gets faster. Which stage
// is the faster one at which catalog size is docs/retrieval.md's table,
// not a test.
func TestANNSpeedupAndRecall(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size retrieval world")
	}
	w := retrievalBenchWorld(t)

	// Recall first — this pass also warms both systems' model caches so
	// the timed sweeps below compare steady-state paths.
	var overlapSum float64
	for _, u := range w.users {
		now := w.next()
		exactTop := w.exact.Recommend(u, recommend.Context{Now: now}, 10)
		annTop := w.approx.Recommend(u, recommend.Context{Now: now}, 10)
		if len(exactTop) == 0 {
			t.Fatalf("exact stage returned nothing for %s", u)
		}
		ids := make(map[string]bool, len(exactTop))
		for _, s := range exactTop {
			ids[s.Item.ID] = true
		}
		hit := 0
		for _, s := range annTop {
			if ids[s.Item.ID] {
				hit++
			}
		}
		overlapSum += float64(hit) / float64(len(exactTop))
	}
	recall := overlapSum / float64(len(w.users))
	if recall < 0.95 {
		t.Fatalf("recall@10 = %.3f, want ≥ 0.95", recall)
	}

	const reps = 2
	sweep := func(sys *System) time.Duration {
		start := time.Now()
		for r := 0; r < reps; r++ {
			for _, u := range w.users {
				if got := sys.Recommend(u, recommend.Context{Now: w.next()}, 10); len(got) == 0 {
					t.Fatalf("empty plan for %s", u)
				}
			}
		}
		return time.Since(start)
	}
	exactTotal := sweep(w.exact)
	annTotal := sweep(w.approx)
	t.Logf("catalog=%d recall@10=%.3f, %d requests: exact=%v (bound %v) ann=%v (bound %v)",
		retrievalCatalogSize, recall, reps*len(w.users), exactTotal, retrievalExactSweepBound, annTotal, retrievalANNSweepBound)
	if exactTotal > retrievalExactSweepBound {
		t.Fatalf("exact stage took %v for %d requests, bound %v", exactTotal, reps*len(w.users), retrievalExactSweepBound)
	}
	if annTotal > retrievalANNSweepBound {
		t.Fatalf("ANN stage took %v for %d requests, bound %v", annTotal, reps*len(w.users), retrievalANNSweepBound)
	}
}

// TestANNCrashRecoveryRebuildsIndex proves the vector index is derived
// state: after a crash, recovery (snapshot restore + WAL replay) feeds
// every item back through Repository.Add, and the rebuilt index holds
// exactly the vectors an oracle index built from the recovered catalog
// holds — no snapshot format change, nothing index-specific persisted.
func TestANNCrashRecoveryRebuildsIndex(t *testing.T) {
	sw, err := synth.GenerateWorld(synth.Params{
		Seed: 11, Days: 3, Users: 2, Stations: 2, PodcastsPerDay: 20,
		TrainingDocsPerCategory: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TrainingDocs: sw.Training, Vocabulary: sw.FlatVocab, Seed: 11,
		ANNCandidates: true, ANNRetrieve: 64}

	dir := t.TempDir()
	live, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dur, err := OpenDurability(live, DurabilityOptions{Dir: dir, Sync: durable.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i, raw := range sw.Corpus {
		if _, err := live.IngestPodcast(raw); err != nil {
			t.Fatal(err)
		}
		if i == len(sw.Corpus)/2 {
			if err := dur.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if live.ANNIndex().Len() != live.Repo.Len() {
		t.Fatalf("live index %d items, repo %d", live.ANNIndex().Len(), live.Repo.Len())
	}
	dur.Crash()

	recovered, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rdur, err := OpenDurability(recovered, DurabilityOptions{Dir: dir, Sync: durable.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer rdur.Close()
	if !rdur.Recovered() {
		t.Fatal("no recovered state")
	}

	n := recovered.Repo.Len()
	if n != len(sw.Corpus) {
		t.Fatalf("recovered %d items, ingested %d", n, len(sw.Corpus))
	}
	ix := recovered.ANNIndex()
	if ix.Len() != n {
		t.Fatalf("recovered index holds %d items, repo %d", ix.Len(), n)
	}
	wantIDs := make([]string, 0, n)
	for _, it := range recovered.Repo.All() {
		wantIDs = append(wantIDs, it.ID)
	}
	sort.Strings(wantIDs)
	if gotIDs := ix.IDs(); !reflect.DeepEqual(gotIDs, wantIDs) {
		t.Fatalf("index IDs diverge from repo: %d vs %d entries", len(gotIDs), len(wantIDs))
	}

	// Vector-level equality: a brute scan ranks by stored quantized
	// vectors only, so identical full rankings across several query
	// directions prove the rebuilt index stored the oracle's vectors.
	oracle := ann.New(ann.Config{Seed: cfg.Seed})
	for _, it := range recovered.Repo.All() {
		oracle.Insert(it)
	}
	for _, cat := range []string{"sport", "music", "technology"} {
		v, ok := embed.QueryVector(map[string]float64{cat: 1})
		if !ok {
			t.Fatalf("no query vector for %q", cat)
		}
		q := embed.Quantize(&v)
		got := ix.BruteSearch(&q, n)
		want := oracle.BruteSearch(&q, n)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("brute ranking for %q diverges between recovered index and oracle", cat)
		}
	}
}

// BenchmarkCandidateExact and BenchmarkCandidateANN are the paired
// acceptance benchmarks: one full Recommend over the shared
// retrievalCatalogSize-item catalog, exact scan vs HNSW.
func BenchmarkCandidateExact(b *testing.B) {
	w := retrievalBenchWorld(b)
	w.exact.Recommend(w.users[0], recommend.Context{Now: w.next()}, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.exact.Recommend(w.users[i%len(w.users)], recommend.Context{Now: w.next()}, 10)
	}
}

func BenchmarkCandidateANN(b *testing.B) {
	w := retrievalBenchWorld(b)
	// Measured recall rides along with the timing so the bench gate can
	// assert both sides of the trade (ann_recall_at_k highlight).
	var overlapSum float64
	for _, u := range w.users {
		now := w.next()
		exactTop := planIDs(w.exact.Recommend(u, recommend.Context{Now: now}, 10))
		annTop := planIDs(w.approx.Recommend(u, recommend.Context{Now: now}, 10))
		ids := make(map[string]bool, len(exactTop))
		for _, id := range exactTop {
			ids[id] = true
		}
		hit := 0
		for _, id := range annTop {
			if ids[id] {
				hit++
			}
		}
		if len(exactTop) > 0 {
			overlapSum += float64(hit) / float64(len(exactTop))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.approx.Recommend(w.users[i%len(w.users)], recommend.Context{Now: w.next()}, 10)
	}
	b.StopTimer()
	b.ReportMetric(overlapSum/float64(len(w.users)), "recall-at-k")
}
