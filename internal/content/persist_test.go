package content

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestRepositorySnapshotRestore(t *testing.T) {
	r := NewRepository()
	geoIt := item("geo", "regional", 2*time.Minute, t0)
	geoIt.Geo = &GeoRelevance{Center: torino, Radius: 1200}
	for _, it := range []*Item{
		item("a", "music", time.Minute, t0.Add(time.Hour)),
		item("b", "food", 3*time.Minute, t0),
		geoIt,
	} {
		if err := r.Add(it); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := r.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewRepository()
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 3 {
		t.Fatalf("restored %d items", restored.Len())
	}
	// Publish order preserved.
	all := restored.All()
	if all[0].ID != "b" && all[0].ID != "geo" {
		t.Fatalf("order: first = %s", all[0].ID)
	}
	got, ok := restored.Get("geo")
	if !ok || got.Geo == nil || got.Geo.Radius != 1200 {
		t.Fatalf("geo relevance lost: %+v", got)
	}
	if got.TopCategory() != "regional" {
		t.Fatalf("categories lost: %v", maps.Collect(got.Weights()))
	}
	// Indexes rebuilt.
	if len(restored.ByCategory("music")) != 1 {
		t.Fatal("category index not rebuilt")
	}
}

func TestRepositoryRestoreValidation(t *testing.T) {
	r := NewRepository()
	if err := r.Add(item("a", "music", time.Minute, t0)); err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(strings.NewReader("[]")); err == nil {
		t.Fatal("restore into non-empty repo accepted")
	}
	fresh := NewRepository()
	if err := fresh.Restore(strings.NewReader("{not json")); err == nil {
		t.Fatal("bad json accepted")
	}
	// JSON cannot spell NaN or Inf, but it can spell a weight whose square
	// is one: the snapshot is refused with the item named, not loaded.
	overflow := `[{"ID":"huge","Duration":60000000000,"Categories":{"music":1e200}}]`
	if err := NewRepository().Restore(strings.NewReader(overflow)); err == nil || !strings.Contains(err.Error(), `"huge"`) {
		t.Fatalf("snapshot with a non-finite category norm: %v", err)
	}
}

// plain is an Item's exported fields in the order snapshots and logged
// ingests have always written them, whatever order Item declares them
// in: encoding/json writes a struct's fields in declaration order.
type plain struct {
	ID          string
	Title       string
	Program     string
	Kind        Kind
	Duration    time.Duration
	Published   time.Time
	Categories  map[string]float64
	Geo         *GeoRelevance
	BitrateKbps int32
}

func plainOf(it *Item) plain {
	return plain{it.ID, it.Title, it.Program, it.Kind, it.Duration, it.Published, it.Categories, it.Geo, it.BitrateKbps}
}

// TestSnapshotWritesItemsAsTheirMaps: Snapshot, and MarshalJSON on an
// item the repository holds, write the bytes encoding/json writes for
// the item as it was added, its Categories map included, escapes and
// number forms alike, its fields in their historical order.
func TestSnapshotWritesItemsAsTheirMaps(t *testing.T) {
	geoIt := item("geo", "regional", 2*time.Minute, t0)
	geoIt.Geo = &GeoRelevance{Center: torino, Radius: 1200}
	odd := item("odd", "music", time.Minute, t0.Add(time.Hour))
	odd.Title = "a <b> & \"c\" "
	odd.BitrateKbps = 96
	odd.Categories = map[string]float64{
		"music": 0.1 + 1e-9, "a<b&c>": 1e-6, `q"uote\`: 5e-324, "é": 1e-7, "tab\t": 1.5, "x\xffy": 123456789.125,
	}
	r := NewRepository()
	var want []plain
	add := []*Item{odd, item("b", "food", 3*time.Minute, t0), geoIt}
	for i := 0; i < 2*snapshotBatch+1; i++ { // three batches
		add = append(add, item(fmt.Sprintf("n%03d", i), Categories[i%len(Categories)], time.Minute, t0.Add(time.Duration(i)*time.Second)))
	}
	for _, it := range add {
		want = append(want, plainOf(it))
		if err := r.Add(it); err != nil {
			t.Fatal(err)
		}
	}
	slices.SortStableFunc(want, func(a, b plain) int { return a.Published.Compare(b.Published) })
	var got, wantBuf bytes.Buffer
	if err := r.Snapshot(&got); err != nil {
		t.Fatal(err)
	}
	if err := json.NewEncoder(&wantBuf).Encode(want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), wantBuf.Bytes()) {
		t.Fatalf("snapshot\n%s\nencoding/json writes\n%s", got.Bytes(), wantBuf.Bytes())
	}
	var empty bytes.Buffer
	if err := NewRepository().Snapshot(&empty); err != nil || empty.String() != "[]\n" {
		t.Fatalf("an empty repository snapshots as %q (%v)", empty.String(), err)
	}
	held, _ := r.Get("odd")
	for _, pair := range [][2]any{{held, plainOf(odd)}, {odd, plainOf(odd)}, {&Item{ID: "none"}, plain{ID: "none"}}} {
		a, err := json.Marshal(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(pair[1])
		if !bytes.Equal(a, b) {
			t.Fatalf("MarshalJSON writes\n%s\nencoding/json writes\n%s", a, b)
		}
	}
}
