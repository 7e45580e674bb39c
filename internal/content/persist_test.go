package content

import (
	"bytes"
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
		t.Fatalf("categories lost: %v", got.Categories)
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
