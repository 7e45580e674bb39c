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
// prefers (O(catalog slice)), it embeds the user's preference vector,
// searches the HNSW index for the Retrieve most similar items, and
// hands Rank only those — sublinear candidate acquisition at pinned
// recall. The warm plan-cache short-circuit,
// preference flattening and downstream Rank/Allocate stages are shared
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

func (s *annCandidates) Gather(t *Task) {
	if s.inner.tryServeWarm(t) {
		return
	}
	set := s.po.acquire(t)
	// Preferences first: the candidate set depends on the user's query
	// vector, not just the instant.
	set.fp.load(s.deps.Preferences(t.User, t.Now))
	t.prefs = set.fp.prefs
	s.build(set, t.Now)
	set.fp.bind(&set.view)
}

// build retrieves the set's candidates, as of now, from the vector
// index.
func (s *annCandidates) build(set *candSet, now time.Time) {
	fp := &set.fp
	fp.q, fp.qOK = embedQuery(fp.prefs)
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
	set.start(&s.deps, now)
	cut := content.Since(now.Add(-s.deps.CandidateWindow))
	kept := set.retrieved[:0]
	for _, seq := range set.retrieved {
		if cut.Admits(set.view.At(seq)) {
			kept = append(kept, seq)
		}
	}
	set.retrieved = kept
	s.m.annResolved.Add(int64(len(kept)))
}

func (s *annCandidates) Release(t *Task) { s.inner.Release(t) }
