package pipeline

import (
	"time"

	"pphcr/internal/content"
	"pphcr/internal/embed"
)

// embedQuery projects and quantizes a preference vector; ok is false
// when the prefs hold no usable direction.
func embedQuery(prefs map[string]float64) (embed.Quantized, bool) {
	v, ok := embed.QueryVector(prefs)
	if !ok {
		return embed.Quantized{}, false
	}
	return embed.Quantize(&v), true
}

// annCandidates is the embedding-retrieval Candidates stage (ROADMAP
// item 4): instead of walking the postings of every category the user
// prefers (O(catalog slice)), it embeds the user's preference vector
// once per (user, instant), searches the HNSW index for the Retrieve
// most similar items, and hands Rank only those — sublinear candidate
// acquisition at pinned recall. The warm plan-cache short-circuit,
// preference memoization and downstream Rank/Allocate stages are shared
// with the exact stage, and the retrieved items are scored from the
// same catalog-resident features, so the two paths differ only in which
// items Rank considers.
//
// Exactness contract: when the index holds no more items than the
// Retrieve budget, ann.Index.Search degrades to an exact scan and this
// stage retrieves the entire (window-filtered) catalog — plans are then
// byte-identical to the exact stage (the ranking order is total, so
// candidate-set iteration order cannot change the output).
type annCandidates struct {
	inner *cacheCandidates
	deps  Deps
	po    *pools
	m     *metrics
}

func (s *annCandidates) Gather(b *Batch) {
	for _, t := range b.Tasks {
		if t.skip() {
			continue
		}
		if s.inner.tryServeWarm(t) {
			continue
		}
		// Preferences first: the candidate set depends on the user's
		// query vector, not just the instant.
		t.fp = b.prefsFor(s.inner, t.User, t.Now)
		t.prefs = t.fp.prefs
		t.set = b.annSetFor(s, t)
		t.fp.bind(&t.set.view)
	}
}

// annSetFor returns the batch's ANN candidate set for (user, instant),
// building it on first use. Unlike the exact stage — where the set
// depends only on the instant — ANN retrieval is query-directed, so the
// memo key includes the user; tasks for the same user and instant (the
// batch path's common case) still share one retrieval and one quantized
// query vector.
//
//pphcr:allow poolescape batch-scoped arena: Release puts every set in b.annSets back when the batch ends
func (b *Batch) annSetFor(s *annCandidates, t *Task) *candSet {
	key := prefsKey{user: t.User, now: t.Now.UnixNano()}
	if set, ok := b.annSets[key]; ok {
		return set
	}
	set, _ := s.po.sets.Get().(*candSet)
	if set == nil {
		set = &candSet{}
	}
	s.build(set, t)
	if b.annSets == nil {
		b.annSets = make(map[prefsKey]*candSet, len(b.Tasks))
	}
	b.annSets[key] = set
	return set
}

// build retrieves the set's candidates from the vector index.
func (s *annCandidates) build(set *candSet, t *Task) {
	fp := t.fp
	if !fp.qSet {
		fp.buildQuery()
	}
	set.fromIndex = true
	set.retrieved = set.retrieved[:0]
	if fp.qOK {
		start := time.Now()
		res := s.deps.ANN.Search(&fp.q, s.deps.ANNRetrieve, s.deps.ANNEf)
		s.m.annSearch.Observe(time.Since(start))
		s.m.annSearches.Add(1)
		s.m.annRetrieved.Add(int64(len(res)))
		// Resolve IDs to catalog numbers here — after Search returned —
		// never inside the index (the vector-index lock sits below the
		// store locks).
		for _, c := range res {
			if seq, ok := s.deps.ResolveItem(c.ID); ok {
				set.retrieved = append(set.retrieved, seq)
			}
		}
	}
	// Empty prefs yield no query direction and no candidates — the exact
	// stage's postings walk matches nothing for such users either.
	//
	// The view is taken after resolution, so it holds every resolved
	// item; then the publish-window cut the exact stage gets from its
	// postings is re-applied.
	set.start(&s.deps, t.Now)
	cut := content.Since(t.Now.Add(-s.deps.CandidateWindow))
	kept := set.retrieved[:0]
	for _, seq := range set.retrieved {
		if cut.Admits(set.view.At(seq)) {
			kept = append(kept, seq)
		}
	}
	set.retrieved = kept
	s.m.annResolved.Add(int64(len(kept)))
}

// buildQuery computes (once per batch memo) the quantized embedding of
// the preference vector shared by every task of this (user, instant).
func (fp *userPrefs) buildQuery() {
	fp.qSet = true
	fp.qOK = false
	if v, ok := embedQuery(fp.prefs); ok {
		fp.q = v
		fp.qOK = true
	}
}

func (s *annCandidates) Release(b *Batch) {
	for _, set := range b.annSets {
		s.po.putSet(set)
	}
	b.annSets = nil
	s.inner.Release(b)
}
