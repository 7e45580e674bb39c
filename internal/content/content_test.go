package content

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
	"unsafe"

	"pphcr/internal/asr"
	"pphcr/internal/geo"
	"pphcr/internal/textclass"
)

var (
	torino = geo.Point{Lat: 45.0703, Lon: 7.6869}
	t0     = time.Date(2016, 11, 15, 6, 0, 0, 0, time.UTC)
)

func item(id, cat string, dur time.Duration, published time.Time) *Item {
	return &Item{
		ID:         id,
		Title:      "title-" + id,
		Duration:   dur,
		Published:  published,
		Categories: map[string]float64{cat: 1},
	}
}

func TestCategoriesInvariants(t *testing.T) {
	if len(Categories) != 30 {
		t.Fatalf("the paper specifies 30 categories, got %d", len(Categories))
	}
	seen := map[string]bool{}
	for _, c := range Categories {
		if seen[c] {
			t.Fatalf("duplicate category %q", c)
		}
		seen[c] = true
	}
	for _, c := range []string{"art", "culture", "music", "economics"} {
		if !seen[c] {
			t.Fatalf("%q missing (named in the paper)", c)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindClip: "clip", KindNews: "news", KindMusic: "music",
		KindTimeShifted: "timeshifted", Kind(42): "kind(42)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestTopCategory(t *testing.T) {
	it := &Item{Categories: map[string]float64{"music": 0.3, "sport": 0.6, "art": 0.1}}
	if got := it.TopCategory(); got != "sport" {
		t.Fatalf("TopCategory = %q", got)
	}
	if got := (&Item{}).TopCategory(); got != "" {
		t.Fatalf("empty TopCategory = %q", got)
	}
}

// TestAddTakesAnotherRepositorysItem: an item one repository handed out
// (Categories nil, its categories as pairs) is added to another with
// the same weights, and neither repository's copy shares the other's.
func TestAddTakesAnotherRepositorysItem(t *testing.T) {
	a, b := NewRepository(), NewRepository()
	in := item("x", "music", time.Minute, t0)
	in.Categories["sport"] = 0.25
	if err := a.Add(in); err != nil {
		t.Fatal(err)
	}
	fromA, _ := a.Get("x")
	if err := b.Add(fromA); err != nil {
		t.Fatal(err)
	}
	fromB, _ := b.Get("x")
	if fromB == fromA || fromB.Categories != nil || &fromB.ws[0] == &fromA.ws[0] {
		t.Fatal("the second repository shares the first one's copy")
	}
	for c, w := range in.Categories {
		if fromB.Weight(c) != w || fromA.Weight(c) != w {
			t.Fatalf("%s: %v and %v, added with %v", c, fromA.Weight(c), fromB.Weight(c), w)
		}
	}
	if got := fromB.TopCategory(); got != "music" {
		t.Fatalf("TopCategory = %q", got)
	}
}

func TestRepositoryAddValidation(t *testing.T) {
	r := NewRepository()
	if err := r.Add(nil); err == nil {
		t.Fatal("nil item accepted")
	}
	if err := r.Add(&Item{Duration: time.Minute}); err == nil {
		t.Fatal("empty ID accepted")
	}
	if err := r.Add(&Item{ID: "x"}); err == nil {
		t.Fatal("zero duration accepted")
	}
	if err := r.Add(item("a", "music", time.Minute, t0)); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(item("a", "music", time.Minute, t0)); err == nil {
		t.Fatal("duplicate accepted")
	}
}

// TestRepositoryAddRejectsNonFiniteWeights: a category vector without a
// finite norm has no cosine, so the item is refused whole — and leaves
// nothing behind; any finite weight, negative and zero included, is a
// classifier's business and is accepted.
func TestRepositoryAddRejectsNonFiniteWeights(t *testing.T) {
	r := NewRepository()
	for i, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e200} {
		it := item(fmt.Sprintf("bad-%d", i), "music", time.Minute, t0)
		it.Categories["sport"] = w
		if err := r.Add(it); err == nil {
			t.Fatalf("weight %v accepted", w)
		}
	}
	if _, ok := r.Get("bad-0"); ok || r.Len() != 0 {
		t.Fatalf("a refused item is in the repository (%d items)", r.Len())
	}
	for i, w := range []float64{-0.5, 0, math.SmallestNonzeroFloat64, 1e150} {
		it := item(fmt.Sprintf("ok-%d", i), "music", time.Minute, t0)
		it.Categories["sport"] = w
		if err := r.Add(it); err != nil {
			t.Fatalf("weight %v: %v", w, err)
		}
	}
}

func TestRepositoryQueries(t *testing.T) {
	r := NewRepository()
	// Deliberately out of publish order.
	for _, it := range []*Item{
		item("c", "sport", time.Minute, t0.Add(2*time.Hour)),
		item("a", "music", time.Minute, t0),
		item("b", "music", time.Minute, t0.Add(time.Hour)),
	} {
		if err := r.Add(it); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	if it, ok := r.Get("b"); !ok || it.ID != "b" {
		t.Fatalf("Get(b) = %v, %v", it, ok)
	}
	if _, ok := r.Get("zz"); ok {
		t.Fatal("Get(zz) ok")
	}
	all := r.All()
	if len(all) != 3 || all[0].ID != "a" || all[1].ID != "b" || all[2].ID != "c" {
		t.Fatalf("All order: %v %v %v", all[0].ID, all[1].ID, all[2].ID)
	}
	music := r.ByCategory("music")
	if len(music) != 2 {
		t.Fatalf("ByCategory(music) = %d items", len(music))
	}
	since := r.AppendPublishedSince(nil, t0.Add(time.Hour))
	if len(since) != 2 || since[0].ID != "b" {
		t.Fatalf("AppendPublishedSince = %d items, first %v", len(since), since[0].ID)
	}
}

// trainedClassifier returns a classifier over two categories.
func trainedClassifier(t *testing.T) *textclass.NaiveBayes {
	t.Helper()
	var nb textclass.NaiveBayes
	docs := []textclass.Document{
		{Tokens: []string{"goal", "partita", "calcio", "derby"}, Category: "sport"},
		{Tokens: []string{"goal", "campionato", "stadio"}, Category: "sport"},
		{Tokens: []string{"ricetta", "vino", "prosecco", "cucina"}, Category: "food"},
		{Tokens: []string{"chef", "ricetta", "champagne"}, Category: "food"},
	}
	if err := nb.Train(docs); err != nil {
		t.Fatal(err)
	}
	return &nb
}

func TestPipelineIngest(t *testing.T) {
	rec, err := asr.New(0.1, asr.DefaultErrorProfile(), []string{"goal", "vino"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	p := &Pipeline{Recognizer: rec, Classifier: trainedClassifier(t), Repo: NewRepository()}
	it, err := p.Process(RawPodcast{
		ID:        "decanter-001",
		Title:     "Champagne, Cava e Prosecco",
		Program:   "Decanter",
		Duration:  8 * time.Minute,
		Published: t0,
		Speech:    "ricetta vino prosecco cucina chef champagne degustazione vino prosecco",
		Kind:      KindClip,
	})
	if err != nil {
		t.Fatal(err)
	}
	if it.TopCategory() != "food" {
		t.Fatalf("TopCategory = %q, want food", it.TopCategory())
	}
	var sum float64
	for _, w := range it.Categories {
		sum += w
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("category mass = %v", sum)
	}
	if p.Repo.Len() != 0 {
		t.Fatal("Process stored the item; the caller decides when it becomes visible")
	}
}

func TestPipelineWiringErrors(t *testing.T) {
	p := &Pipeline{}
	if _, err := p.Process(RawPodcast{ID: "x"}); err == nil {
		t.Fatal("unwired pipeline accepted")
	}
	rec, _ := asr.New(0, asr.DefaultErrorProfile(), nil, 1)
	p = &Pipeline{Recognizer: rec, Classifier: &textclass.NaiveBayes{}, Repo: NewRepository()}
	if _, err := p.Process(RawPodcast{ID: "x", Duration: time.Minute, Speech: "ciao"}); err == nil {
		t.Fatal("untrained classifier accepted")
	}
}

// TestViewMatchesLinearScan: for every category and a sweep of cuts —
// before the Unix epoch, inside one second, at an item's exact instant —
// Postings from WindowStart on, filtered by Admits, is the set a scan of
// the items finds, each beside the weight its item gives the category,
// for items added in and out of publish order; every item's resident
// row mirrors its duration, kind and whether it has a geographic scope;
// and a view does not see what is added after it was taken.
func TestViewMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cats := []string{"music", "sport", "zebra", "art"}
	kinds := []Kind{KindClip, KindNews, KindMusic, KindTimeShifted, 4, 255}
	base := time.Date(1969, 12, 31, 23, 59, 58, 0, time.UTC) // straddles the epoch clamp
	r := NewRepository()
	var items []*Item
	add := func(i int, published time.Time) {
		it := &Item{
			ID: fmt.Sprintf("v%03d", i), Kind: kinds[i%len(kinds)], Duration: time.Duration(1+i*7919) * time.Millisecond,
			Published: published, Categories: map[string]float64{},
		}
		if i%3 == 0 {
			it.Geo = &GeoRelevance{Center: torino, Radius: float64(100 * i)}
		}
		for _, c := range rng.Perm(len(cats))[:1+rng.Intn(3)] {
			it.Categories[cats[c]] = rng.Float64()
		}
		if err := r.Add(it); err != nil {
			t.Fatal(err)
		}
		items = append(items, it)
	}
	for i := 0; i < 60; i++ { // in publish order, several per second
		add(i, base.Add(time.Duration(i)*300*time.Millisecond))
	}
	for i := 60; i < 120; i++ { // late arrivals
		add(i, base.Add(time.Duration(rng.Intn(18_000))*time.Millisecond))
	}
	var v View
	r.ReadView(&v)
	seen := len(items)
	add(120, base.Add(5*time.Second))
	if v.Len() != seen {
		t.Fatalf("view grew to %d items after it was taken at %d", v.Len(), seen)
	}
	for seq, it := range items[:seen] {
		f := v.At(int32(seq))
		if f.Item.ID != it.ID || f.Duration != it.Duration || f.Kind != it.Kind || f.HasGeo != (it.Geo != nil) {
			t.Fatalf("seq %d: row {%s %v %v geo:%v}, item {%s %v %v geo:%v}",
				seq, f.Item.ID, f.Duration, f.Kind, f.HasGeo, it.ID, it.Duration, it.Kind, it.Geo != nil)
		}
	}

	cuts := []time.Time{{}, base, base.Add(18 * time.Second), items[10].Published, items[10].Published.Add(time.Nanosecond)}
	for i := 0; i < 40; i++ {
		cuts = append(cuts, base.Add(time.Duration(rng.Intn(19_000))*time.Millisecond))
	}
	for _, cat := range cats {
		id, ok := v.CategoryID(cat)
		if !ok {
			t.Fatalf("category %q not interned", cat)
		}
		for _, at := range cuts {
			cut := Since(at)
			var got, want []string
			seqs, ws := v.Postings(id, v.WindowStart(cut))
			if len(ws) != len(seqs) {
				t.Fatalf("%s since %v: %d seqs beside %d weights", cat, at, len(seqs), len(ws))
			}
			for i, seq := range seqs {
				f := v.At(seq)
				if ws[i] != f.Item.Weight(cat) {
					t.Fatalf("%s since %v: %s filed with weight %v, item has %v", cat, at, f.Item.ID, ws[i], f.Item.Weight(cat))
				}
				if cut.Admits(f) {
					got = append(got, f.Item.ID)
				}
			}
			for _, it := range items[:seen] {
				if _, has := it.Categories[cat]; has && !it.Published.Before(at) {
					want = append(want, it.ID)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s since %v:\n got  %v\n want %v", cat, at, got, want)
			}
		}
	}
	// From seq 0 on, the postings hold every item's whole category vector:
	// each (item, category) pair once, in ascending seq order, beside the
	// weight the item's map gives it.
	filed := make([]int, seen)
	for _, cat := range cats {
		id, _ := v.CategoryID(cat)
		seqs, ws := v.Postings(id, 0)
		for i, seq := range seqs {
			it := items[seq]
			if v.At(seq).Item.ID != it.ID {
				t.Fatalf("%s: seq %d holds %s, item %d added was %s", cat, seq, v.At(seq).Item.ID, seq, it.ID)
			}
			if i > 0 && seqs[i-1] >= seq {
				t.Fatalf("%s: seq %d filed after %d", cat, seq, seqs[i-1])
			}
			if w, has := it.Categories[cat]; !has || ws[i] != w {
				t.Fatalf("%s: %s filed with weight %v, item has %v", cat, it.ID, ws[i], it.Categories)
			}
			filed[seq]++
		}
	}
	for seq, it := range items[:seen] {
		if filed[seq] != len(it.Categories) {
			t.Fatalf("%s: filed under %d categories, item has %d", it.ID, filed[seq], len(it.Categories))
		}
	}
}

// TestFeaturesRowSize guards the resident row's width. Every node keeps
// one row per item for the catalog's life, so each 8 B added is
// 8 B × items × nodes of live heap — 0.3 MB of the benchmark's
// live_heap_mb at its 20 000 items on leader and follower — and the
// copies of the item's fields fill the row's padding up to 32 B.
func TestFeaturesRowSize(t *testing.T) {
	if n := unsafe.Sizeof(Features{}); n > 32 {
		t.Fatalf("content.Features is %d B, want ≤ 32", n)
	}
}

// TestChunksAreWholePages guards the chunk sizes against a change in
// Item's or the pair's width: a full chunk that is not a whole number of
// 8 KiB pages is rounded up by the allocator, and every node pays the
// remainder once per chunk.
func TestChunksAreWholePages(t *testing.T) {
	const page = 8 << 10
	if n := unsafe.Sizeof(Item{}) * itemChunk; n%page != 0 {
		t.Fatalf("an item chunk is %d B (%d B an item), not a whole number of pages", n, unsafe.Sizeof(Item{}))
	}
	if n := unsafe.Sizeof(catWeight{}) * pairChunk; n%page != 0 {
		t.Fatalf("a pair chunk is %d B, not a whole number of pages", n)
	}
}

// TestChunkReadsWhileAddAppends: readers take Views, read items by seq
// and read their categories while Add copies items and pairs into the
// chunks they read, across every chunk boundary; under -race it is the
// proof that an item, once a reader can reach it, is never written. Each
// item read has Categories nil and the weights it was added with.
func TestChunkReadsWhileAddAppends(t *testing.T) {
	const n = 3000
	rng := rand.New(rand.NewSource(7))
	items := make([]*Item, n)
	for i := range items {
		cats := map[string]float64{}
		for len(cats) < 2+i%3 {
			cats[Categories[rng.Intn(len(Categories))]] = rng.Float64()
		}
		items[i] = &Item{ID: fmt.Sprintf("c%05d", i), Duration: time.Minute, Published: t0.Add(time.Duration(i) * time.Second), Categories: cats}
	}
	r := NewRepository()
	check := func(seq int32, it *Item) error {
		want := items[seq].Categories
		if it.Categories != nil {
			return fmt.Errorf("item %s holds a map", it.ID)
		}
		k := 0
		for c, w := range it.Weights() {
			if math.Float64bits(w) != math.Float64bits(want[c]) || it.Weight(c) != w {
				return fmt.Errorf("item %s: %s weighs %v, added with %v", it.ID, c, w, want[c])
			}
			k++
		}
		if k != len(want) {
			return fmt.Errorf("item %s: %d categories, added with %d", it.ID, k, len(want))
		}
		return nil
	}
	done := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var v View
			for {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				r.ReadView(&v)
				m := v.Len()
				for i := 0; i < 8 && m > 0; i++ {
					seq := int32((m - 1 - i*(g+1)*37%m + m) % m)
					if err := check(seq, v.At(seq).Item); err != nil {
						errs <- err
						return
					}
					if err := check(seq, r.ItemAt(seq)); err != nil {
						errs <- err
						return
					}
				}
				v.Reset()
			}
		}(g)
	}
	for _, it := range items {
		if err := r.Add(it); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for seq, it := range r.All() {
		if err := check(int32(seq), it); err != nil {
			t.Fatal(err)
		}
	}
}
