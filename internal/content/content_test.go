package content

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

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
		if !IsCategory(c) {
			t.Fatalf("%q missing (named in the paper)", c)
		}
	}
	if IsCategory("quantum") {
		t.Fatal("IsCategory accepted unknown")
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

func TestSizeBytes(t *testing.T) {
	it := &Item{Duration: time.Minute, BitrateKbps: 96}
	want := int64(96 * 1000 / 8 * 60)
	if got := it.SizeBytes(); got != want {
		t.Fatalf("SizeBytes = %d, want %d", got, want)
	}
	// Default bitrate applies when unset.
	it2 := &Item{Duration: time.Minute}
	if got := it2.SizeBytes(); got != want {
		t.Fatalf("default SizeBytes = %d, want %d", got, want)
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
	since := r.PublishedSince(t0.Add(time.Hour))
	if len(since) != 2 || since[0].ID != "b" {
		t.Fatalf("PublishedSince = %d items, first %v", len(since), since[0].ID)
	}
}

func TestRepositoryGeoItems(t *testing.T) {
	r := NewRepository()
	local := item("local", "regional", time.Minute, t0)
	local.Geo = &GeoRelevance{Center: torino, Radius: 2000}
	far := item("far", "regional", time.Minute, t0)
	far.Geo = &GeoRelevance{Center: geo.Destination(torino, 90, 50000), Radius: 2000}
	global := item("global", "music", time.Minute, t0)
	for _, it := range []*Item{local, far, global} {
		if err := r.Add(it); err != nil {
			t.Fatal(err)
		}
	}
	got := r.GeoItems(geo.Destination(torino, 0, 500))
	if len(got) != 1 || got[0].ID != "local" {
		t.Fatalf("GeoItems = %+v", got)
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
	it, err := p.Ingest(RawPodcast{
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
	if _, ok := p.Repo.Get("decanter-001"); !ok {
		t.Fatal("item not stored")
	}
}

func TestPipelineWiringErrors(t *testing.T) {
	p := &Pipeline{}
	if _, err := p.Ingest(RawPodcast{ID: "x"}); err == nil {
		t.Fatal("unwired pipeline accepted")
	}
	rec, _ := asr.New(0, asr.DefaultErrorProfile(), nil, 1)
	p = &Pipeline{Recognizer: rec, Classifier: &textclass.NaiveBayes{}, Repo: NewRepository()}
	if _, err := p.Ingest(RawPodcast{ID: "x", Duration: time.Minute, Speech: "ciao"}); err == nil {
		t.Fatal("untrained classifier accepted")
	}
}

func TestPipelineIngestAll(t *testing.T) {
	rec, _ := asr.New(0, asr.DefaultErrorProfile(), nil, 1)
	p := &Pipeline{Recognizer: rec, Classifier: trainedClassifier(t), Repo: NewRepository()}
	raws := []RawPodcast{
		{ID: "a", Duration: time.Minute, Published: t0, Speech: "goal partita"},
		{ID: "b", Duration: time.Minute, Published: t0, Speech: "vino ricetta"},
	}
	items, err := p.IngestAll(raws)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 || p.Repo.Len() != 2 {
		t.Fatalf("ingested %d, repo %d", len(items), p.Repo.Len())
	}
	// Duplicate ID in the batch stops with an error.
	if _, err := p.IngestAll([]RawPodcast{{ID: "a", Duration: time.Minute, Speech: "goal"}}); err == nil {
		t.Fatal("duplicate batch accepted")
	}
}

// TestGeoItemsEquivalenceWithLinearScan cross-checks the R-tree-backed
// GeoItems against the seed's full-table scan on randomized items and
// query points.
func TestGeoItemsEquivalenceWithLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := NewRepository()
	var geoItems []*Item
	for i := 0; i < 400; i++ {
		it := item(fmt.Sprintf("it-%03d", i), "regional", time.Minute, t0.Add(time.Duration(i)*time.Minute))
		if i%3 != 0 { // mix in non-geo items the index must ignore
			center := geo.Destination(torino, rng.Float64()*360, rng.Float64()*30000)
			it.Geo = &GeoRelevance{Center: center, Radius: 200 + rng.Float64()*5000}
			geoItems = append(geoItems, it)
		}
		if err := r.Add(it); err != nil {
			t.Fatal(err)
		}
	}
	linear := func(p geo.Point) map[string]bool {
		out := map[string]bool{}
		for _, it := range geoItems {
			if geo.Distance(p, it.Geo.Center) <= it.Geo.Radius {
				out[it.ID] = true
			}
		}
		return out
	}
	hits := 0
	for q := 0; q < 200; q++ {
		p := geo.Destination(torino, rng.Float64()*360, rng.Float64()*35000)
		want := linear(p)
		got := r.GeoItems(p)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d items from index, %d from scan", q, len(got), len(want))
		}
		for i, it := range got {
			if !want[it.ID] {
				t.Fatalf("query %d: index returned %q, scan did not", q, it.ID)
			}
			if i > 0 && got[i-1].Published.After(it.Published) {
				t.Fatalf("query %d: results not in publish order", q)
			}
		}
		hits += len(got)
	}
	if hits == 0 {
		t.Fatal("degenerate test: no query matched anything")
	}
}

// TestViewMatchesLinearScan: for every category and a sweep of cuts —
// before the Unix epoch, inside one second, at an item's exact instant —
// Postings from WindowStart on, filtered by Admits, is the set a scan of
// the items finds, each beside the weight its item gives the category,
// for items added in and out of publish order; and a view does not see
// what is added after it was taken.
func TestViewMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cats := []string{"music", "sport", "zebra", "art"}
	base := time.Date(1969, 12, 31, 23, 59, 58, 0, time.UTC) // straddles the epoch clamp
	r := NewRepository()
	var items []*Item
	add := func(i int, published time.Time) {
		it := &Item{ID: fmt.Sprintf("v%03d", i), Duration: time.Minute, Published: published, Categories: map[string]float64{}}
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
				if ws[i] != f.Item.Categories[cat] {
					t.Fatalf("%s since %v: %s filed with weight %v, item has %v", cat, at, f.Item.ID, ws[i], f.Item.Categories[cat])
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
	// Vectors are ordered by category name and carry the map's weights.
	for seq, it := range items[:seen] {
		ids, ws := v.Vector(int32(seq))
		if len(ids) != len(it.Categories) {
			t.Fatalf("%s: vector has %d coordinates, item %d", it.ID, len(ids), len(it.Categories))
		}
		prev := ""
		for j, id := range ids {
			var name string
			for _, c := range cats {
				if cid, _ := v.CategoryID(c); cid == id {
					name = c
				}
			}
			if name <= prev || ws[j] != it.Categories[name] {
				t.Fatalf("%s: coordinate %d is %q=%v after %q, item has %v", it.ID, j, name, ws[j], prev, it.Categories)
			}
			prev = name
		}
	}
}
