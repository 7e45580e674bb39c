package georelevance

import (
	"strings"
	"testing"
	"time"

	"pphcr/internal/content"
	"pphcr/internal/geo"
)

var (
	torino     = geo.Point{Lat: 45.0703, Lon: 7.6869}
	milano     = geo.Point{Lat: 45.4642, Lon: 9.19}
	vanchiglia = geo.Point{Lat: 45.0746, Lon: 7.6998}
)

func gazetteer() []Place {
	return []Place{
		{Name: "torino", Center: torino, Radius: 8000},
		{Name: "milano", Center: milano, Radius: 10000},
		{Name: "vanchiglia", Center: vanchiglia, Radius: 1200},
	}
}

func newEstimator(t *testing.T) *Estimator {
	t.Helper()
	e, err := NewEstimator(gazetteer())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEstimatorValidation(t *testing.T) {
	if _, err := NewEstimator(nil); err == nil {
		t.Fatal("empty gazetteer accepted")
	}
	if _, err := NewEstimator([]Place{{Name: "", Radius: 100}}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := NewEstimator([]Place{{Name: "x", Radius: 0}}); err == nil {
		t.Fatal("zero radius accepted")
	}
	if _, err := NewEstimator([]Place{
		{Name: "x", Radius: 100}, {Name: "X", Radius: 100},
	}); err == nil {
		t.Fatal("duplicate (case-folded) accepted")
	}
}

func TestMentions(t *testing.T) {
	e := newEstimator(t)
	ms := e.Mentions("il mercato di Vanchiglia a Torino, Vanchiglia sempre Vanchiglia")
	if len(ms) != 2 {
		t.Fatalf("mentions = %+v", ms)
	}
	if ms[0].Place.Name != "vanchiglia" || ms[0].Count != 3 {
		t.Fatalf("top mention = %+v", ms[0])
	}
	if ms[1].Place.Name != "torino" || ms[1].Count != 1 {
		t.Fatalf("second mention = %+v", ms[1])
	}
	if got := e.Mentions("niente luoghi qui"); len(got) != 0 {
		t.Fatalf("unexpected mentions: %+v", got)
	}
}

func TestEstimateConcentratedMentions(t *testing.T) {
	e := newEstimator(t)
	scope, reason := e.Estimate("notizie da vanchiglia: il quartiere vanchiglia apre il nuovo mercato vanchiglia")
	if scope == nil {
		t.Fatalf("no scope: %s", reason)
	}
	if d := geo.Distance(scope.Center, vanchiglia); d > 1 {
		t.Fatalf("center %v off by %v m", scope.Center, d)
	}
	// Unanimous vote keeps the place's own radius.
	if scope.Radius < 1200 || scope.Radius > 1200*1.05 {
		t.Fatalf("radius = %v, want ≈1200", scope.Radius)
	}
}

func TestEstimateDilutedVoteWidensRadius(t *testing.T) {
	e := newEstimator(t)
	// 2 torino vs 1 milano: share 2/3 ⇒ radius = 8000 × (2 − 2/3) = 10667.
	scope, reason := e.Estimate("torino torino milano")
	if scope == nil {
		t.Fatalf("no scope: %s", reason)
	}
	if scope.Radius <= 8000 {
		t.Fatalf("diluted vote should widen the radius: %v", scope.Radius)
	}
}

func TestEstimateRejections(t *testing.T) {
	e := newEstimator(t)
	if scope, reason := e.Estimate("nessun luogo"); scope != nil || reason == "" {
		t.Fatalf("no-mention case: %v %q", scope, reason)
	}
	if scope, _ := e.Estimate("solo torino"); scope != nil {
		t.Fatal("single mention should not scope")
	}
	// Scattered: torino, milano, vanchiglia once each + torino once = top
	// share 0.5... make it clearly scattered: three places, one each, plus
	// a fourth mention of a different one.
	if scope, reason := e.Estimate("torino milano vanchiglia milano torino vanchiglia"); scope != nil {
		t.Fatalf("scattered mentions scoped: %q", reason)
	}
}

// TestAnnotateRepository: items are annotated before they are added —
// an added item is immutable — and the repository's geo index then
// finds the estimated scope.
func TestAnnotateRepository(t *testing.T) {
	e := newEstimator(t)
	repo := content.NewRepository()
	published := time.Date(2016, 11, 15, 6, 0, 0, 0, time.UTC)
	mk := func(id string) *content.Item {
		return &content.Item{
			ID: id, Title: id, Duration: time.Minute, Published: published,
			Categories: map[string]float64{"regional": 1},
		}
	}
	local := mk("local")
	alreadyTagged := mk("tagged")
	alreadyTagged.Geo = &content.GeoRelevance{Center: milano, Radius: 500}
	global := mk("global")
	noTranscript := mk("silent")
	transcripts := map[string]string{
		"local":  "vanchiglia vanchiglia mercato vanchiglia",
		"tagged": "torino torino torino",
		"global": "economia mondiale senza luoghi",
	}
	n := 0
	for _, it := range []*content.Item{local, alreadyTagged, global, noTranscript} {
		if tr, ok := transcripts[it.ID]; ok && it.Geo == nil {
			if scope, _ := e.Estimate(tr); scope != nil {
				it.Geo = scope
				n++
			}
		}
		if err := repo.Add(it); err != nil {
			t.Fatal(err)
		}
	}
	if n != 1 {
		t.Fatalf("annotated %d, want 1", n)
	}
	if local.Geo == nil {
		t.Fatal("local item not annotated")
	}
	if d := geo.Distance(local.Geo.Center, vanchiglia); d > 1 {
		t.Fatalf("annotation center off by %v m", d)
	}
	// Editorial tag untouched.
	if alreadyTagged.Geo.Center != milano {
		t.Fatal("editorial geo tag overwritten")
	}
	if global.Geo != nil || noTranscript.Geo != nil {
		t.Fatal("global items wrongly annotated")
	}
	if got := repo.GeoItems(vanchiglia); len(got) != 1 || got[0] != local {
		t.Fatalf("GeoItems at the annotated place = %v, want [local]", got)
	}
}

func TestEstimateCaseInsensitive(t *testing.T) {
	e := newEstimator(t)
	scope, _ := e.Estimate(strings.ToUpper("torino torino torino"))
	if scope == nil {
		t.Fatal("uppercase mentions not matched")
	}
}
