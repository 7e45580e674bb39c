package pipeline

import (
	"fmt"
	"testing"
	"time"

	"pphcr/internal/content"
	"pphcr/internal/core"
	"pphcr/internal/recommend"
	"pphcr/internal/tracking"
)

var testEpoch = time.Date(2017, 3, 20, 8, 0, 0, 0, time.UTC)

// rankDeps builds a Deps over a fixed in-memory corpus, counting
// preference reads and candidate acquisitions.
func rankDeps(items []*content.Item, prefs map[string]float64, prefReads, acquires *int) Deps {
	scorer := recommend.NewScorer(0.4)
	repo := content.NewRepository()
	for _, it := range items {
		if err := repo.Add(it); err != nil {
			panic(err)
		}
	}
	return Deps{
		Mobility: func(string) (*tracking.CompactModel, bool) { return nil, false },
		Preferences: func(user string, now time.Time) map[string]float64 {
			*prefReads++
			out := make(map[string]float64, len(prefs))
			for k, v := range prefs {
				out[k] = v
			}
			return out
		},
		Catalog: func(v *content.View) {
			*acquires++
			repo.ReadView(v)
		},
		CandidateWindow: 72 * time.Hour,
		Planner:         core.NewPlanner(scorer),
		Scorer:          scorer,
	}
}

func corpus(n int) []*content.Item {
	cats := []string{"news", "sport", "culture", "science", "food"}
	items := make([]*content.Item, n)
	for i := range items {
		items[i] = &content.Item{
			ID:        fmt.Sprintf("it-%03d", i),
			Title:     fmt.Sprintf("Item %d", i),
			Duration:  time.Duration(2+i%6) * time.Minute,
			Published: testEpoch.Add(-time.Duration(i) * time.Hour),
			Categories: map[string]float64{
				cats[i%len(cats)]:     0.7 + 0.01*float64(i%7),
				cats[(i+1)%len(cats)]: 0.3,
			},
		}
	}
	return items
}

// TestRankMatchesReferenceRanker: the index-based Rank stage must
// select and order exactly the items the reference Scorer.Rank keeps —
// the inverted index is a pure shortcut under the content floor.
func TestRankMatchesReferenceRanker(t *testing.T) {
	items := corpus(60)
	prefs := map[string]float64{"news": 0.8, "sport": -0.2, "science": 0.4}
	var prefReads, acquires int
	deps := rankDeps(items, prefs, &prefReads, &acquires)
	p := New(deps)

	ctx := recommend.Context{Now: testEpoch}
	task := &Task{Mode: ModeRank, User: "u", Now: testEpoch, Ctx: ctx}
	p.Run(task)

	ref := deps.Scorer.Rank(prefs, items, ctx, 0)
	if len(task.Ranked) != len(ref) {
		t.Fatalf("ranked %d items, reference %d", len(task.Ranked), len(ref))
	}
	for i := range ref {
		if task.Ranked[i].Item.ID != ref[i].Item.ID {
			t.Fatalf("position %d: %s != reference %s", i, task.Ranked[i].Item.ID, ref[i].Item.ID)
		}
	}
}

// TestRankTopKHeapMatchesFullSort: for every k the bounded heap must
// return the first k entries of the full ranking.
func TestRankTopKHeapMatchesFullSort(t *testing.T) {
	items := corpus(60)
	prefs := map[string]float64{"news": 0.8, "culture": 0.5, "food": 0.3}
	var prefReads, acquires int
	p := New(rankDeps(items, prefs, &prefReads, &acquires))

	full := &Task{Mode: ModeRank, User: "u", Now: testEpoch, Ctx: recommend.Context{Now: testEpoch}}
	p.Run(full)
	if len(full.Ranked) < 10 {
		t.Fatalf("fixture too sparse: %d ranked", len(full.Ranked))
	}
	for _, k := range []int{1, 2, 5, len(full.Ranked), len(full.Ranked) + 10} {
		topk := &Task{Mode: ModeRank, User: "u", Now: testEpoch, Ctx: recommend.Context{Now: testEpoch}, K: k}
		p.Run(topk)
		want := k
		if want > len(full.Ranked) {
			want = len(full.Ranked)
		}
		if len(topk.Ranked) != want {
			t.Fatalf("k=%d: got %d items, want %d", k, len(topk.Ranked), want)
		}
		for i := range topk.Ranked {
			if topk.Ranked[i].Item.ID != full.Ranked[i].Item.ID {
				t.Fatalf("k=%d position %d: %s != %s", k, i, topk.Ranked[i].Item.ID, full.Ranked[i].Item.ID)
			}
		}
	}
}

// TestRankExcludeSkipsItems: excluded IDs never appear, and the k best
// survivors shift up.
func TestRankExcludeSkipsItems(t *testing.T) {
	items := corpus(40)
	prefs := map[string]float64{"news": 0.8, "culture": 0.5}
	var prefReads, acquires int
	p := New(rankDeps(items, prefs, &prefReads, &acquires))

	full := &Task{Mode: ModeRank, User: "u", Now: testEpoch, Ctx: recommend.Context{Now: testEpoch}}
	p.Run(full)
	if len(full.Ranked) < 3 {
		t.Fatal("fixture too sparse")
	}
	exclude := map[string]bool{
		full.Ranked[0].Item.ID: true,
		full.Ranked[2].Item.ID: true,
	}
	t2 := &Task{Mode: ModeRank, User: "u", Now: testEpoch, Ctx: recommend.Context{Now: testEpoch}, K: 1, Exclude: exclude}
	p.Run(t2)
	if len(t2.Ranked) != 1 {
		t.Fatalf("got %d items", len(t2.Ranked))
	}
	if got, want := t2.Ranked[0].Item.ID, full.Ranked[1].Item.ID; got != want {
		t.Fatalf("replacement = %s, want %s", got, want)
	}
}

// TestStageMetrics: ModeRank touches only Candidates and Rank, and every
// stage a task reaches counts it once.
func TestStageMetrics(t *testing.T) {
	items := corpus(20)
	var prefReads, acquires int
	p := New(rankDeps(items, map[string]float64{"news": 1}, &prefReads, &acquires))

	for i := 0; i < 4; i++ {
		p.Run(&Task{Mode: ModeRank, User: "u", Now: testEpoch, Ctx: recommend.Context{Now: testEpoch}})
	}
	st := p.Stats()
	if st.Tasks != 4 {
		t.Fatalf("tasks = %d, want 4", st.Tasks)
	}
	if st.Rank.Count != 4 {
		t.Fatalf("rank count = %d, want 4", st.Rank.Count)
	}
	if st.Candidates.Count != 4 {
		t.Fatalf("candidates count = %d, want 4", st.Candidates.Count)
	}
	if acquires != 4 || prefReads != 4 {
		t.Fatalf("catalog views/preference reads = %d/%d, want one each per task", acquires, prefReads)
	}
	if st.Predict.Count != 0 || st.Gate.Count != 0 || st.Allocate.Count != 0 {
		t.Fatalf("plan-only stages ran for ModeRank: %+v", st)
	}
}

// TestPredictErrorsSkipLaterStages: a task that fails Predict must not
// reach the later stages.
func TestPredictErrorsSkipLaterStages(t *testing.T) {
	items := corpus(20)
	var prefReads, acquires int
	p := New(rankDeps(items, map[string]float64{"news": 1}, &prefReads, &acquires))

	bad := &Task{Mode: ModeLive, User: "nobody", Now: testEpoch}
	p.Run(bad)
	if bad.Err == nil {
		t.Fatal("live task without mobility model should error")
	}
	if len(bad.Ranked) != 0 || len(bad.Plan.Items) != 0 {
		t.Fatal("errored task produced output")
	}
	if st := p.Stats(); st.Predict.Count != 1 || st.Gate.Count+st.Candidates.Count+st.Rank.Count+st.Allocate.Count != 0 {
		t.Fatalf("errored task ran past Predict: %+v", st)
	}
}
