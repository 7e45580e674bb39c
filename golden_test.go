package pphcr

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"pphcr/internal/content"
	"pphcr/internal/feedback"
	"pphcr/internal/recommend"
	"pphcr/internal/synth"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/plan_golden_amd64.txt from this tree's plans")

// goldenPath holds one SHA-256 per seed and catalog shape. The bits of a
// score depend on the platform: arm64 may fuse a multiply and an add
// into one instruction and round once where amd64 rounds twice, so the
// golden is amd64's and other architectures skip the test.
const goldenPath = "testdata/plan_golden_amd64.txt"

// TestPlanGolden is the plan dump as a test: for seeds 1–4 and three
// catalog shapes (the world's ingested corpus, denseCatalogShape and
// mixedCatalogShape), every driver's cold plan, its warm re-serve,
// Recommend at k=1 and k=10 and the re-plan after liking the cold
// plan's items and disliking its first, each score as its IEEE-754
// bits. The dump of one seed and shape hashes to one line of the
// golden. A change that moves no plan leaves the file as it is; one that
// moves plans on purpose rewrites it with -update-golden and says why:
// go test -run TestPlanGolden -update-golden .
func TestPlanGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the golden holds amd64's score bits; this is %s", runtime.GOARCH)
	}
	var got bytes.Buffer
	for seed := int64(1); seed <= 4; seed++ {
		w, err := synth.GenerateWorld(synth.Params{
			Seed: seed, Days: 5, Users: 6, Stations: 2, PodcastsPerDay: 40, TrainingDocsPerCategory: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, shape := range []struct {
			name    string
			catalog func(t *testing.T, sys *System, w *synth.World)
		}{
			{"world", ingestCorpus},
			{"dense", denseCatalogShape},
			{"mixed", mixedCatalogShape},
		} {
			sys, err := NewWorld(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			shape.catalog(t, sys, w)
			h := sha256.New()
			dumpPlans(t, h, sys, w)
			fmt.Fprintf(&got, "seed=%d shape=%s %x\n", seed, shape.name, h.Sum(nil))
		}
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("plans moved (rewrite with -update-golden if they should):\n got:\n%s want:\n%s", got.Bytes(), want)
	}
}

func ingestCorpus(t *testing.T, sys *System, w *synth.World) {
	if err := sys.IngestAll(w.Corpus); err != nil {
		t.Fatal(err)
	}
}

// denseCatalogShape is the benchmark's catalog shape: four-minute clips,
// each with 2–4 category weights summing to 1, published evenly over the
// two days before the planning day.
func denseCatalogShape(t *testing.T, sys *System, w *synth.World) {
	addShapedCatalog(t, sys, w, func(*rand.Rand) time.Duration { return 4 * time.Minute })
}

// mixedCatalogShape is the dense shape with durations uniform in 90–689 s
// at 1 s: about 41 slot classes, a different one from item to item.
func mixedCatalogShape(t *testing.T, sys *System, w *synth.World) {
	addShapedCatalog(t, sys, w, func(rng *rand.Rand) time.Duration { return time.Duration(90+rng.Intn(600)) * time.Second })
}

func addShapedCatalog(t *testing.T, sys *System, w *synth.World, duration func(*rand.Rand) time.Duration) {
	const n = 5000
	rng := rand.New(rand.NewSource(w.Params.Seed))
	end := synth.NextWeekday(w.Params.StartDate.AddDate(0, 0, 7))
	for i := 0; i < n; i++ {
		cats, total := map[string]float64{}, 0.0
		for k := 2 + rng.Intn(3); len(cats) < k; {
			cat := content.Categories[rng.Intn(len(content.Categories))]
			if _, dup := cats[cat]; !dup {
				cats[cat] = 0.2 + rng.Float64()
				total += cats[cat]
			}
		}
		for cat := range cats {
			cats[cat] /= total
		}
		if err := sys.Repo.Add(&content.Item{
			ID: fmt.Sprintf("cat-%05d", i), Kind: content.KindClip, Duration: duration(rng),
			Published:  end.Add(-48*time.Hour + time.Duration(i)*48*time.Hour/n),
			Categories: cats,
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// dumpPlans registers every persona, feeds each two weekdays of
// commutes and compacts them, then writes each driver's plans and
// rankings on the first three minutes of their planning-day morning
// commute.
func dumpPlans(t *testing.T, out io.Writer, sys *System, w *synth.World) {
	for _, p := range w.Personas {
		user := p.Profile.UserID
		if err := sys.RegisterUser(p.Profile); err != nil {
			t.Fatal(err)
		}
		recordCommutes(t, sys, w, p, 2)
		_, err := sys.CompactTracking(user)
		fmt.Fprintf(out, "driver %s model %v\n", user, err)
	}
	day := synth.NextWeekday(w.Params.StartDate.AddDate(0, 0, 7))
	for _, p := range w.Personas {
		user := p.Profile.UserID
		full, _, err := w.CommuteTrace(p, day, true)
		if err != nil {
			t.Fatal(err)
		}
		partial := full.Head(3 * time.Minute)
		now := partial[len(partial)-1].Time
		fmt.Fprintf(out, "driver %s at %d\n", user, now.UnixNano())

		cold, err := sys.PlanTrip(user, partial, now, nil)
		dumpTripPlan(out, "cold", cold, err)
		warm, err := sys.PlanTrip(user, partial, now, nil)
		dumpTripPlan(out, "warm", warm, err)

		ctx := recommend.Context{Now: now, Position: partial[len(partial)-1].Point, Driving: true}
		if cold != nil && !cold.Context.Now.IsZero() {
			ctx = cold.Context
		}
		for _, k := range []int{1, 10} {
			fmt.Fprintf(out, "recommend k=%d\n", k)
			for _, sc := range sys.Recommend(user, ctx, k) {
				dumpScored(out, sc)
			}
		}

		if cold != nil && len(cold.Plan.Items) > 0 {
			// A history, as the benchmark's drivers have: the cold plan's
			// items liked a few times each, so the one disliked below
			// would still rank and only the exclusion keeps it out.
			for _, pi := range cold.Plan.Items {
				for range 3 {
					if err := sys.AddFeedback(feedback.Event{
						UserID: user, ItemID: pi.Scored.Item.ID, Kind: feedback.Like, At: now.Add(-time.Hour),
					}); err != nil {
						t.Fatal(err)
					}
				}
			}
			it := cold.Plan.Items[0].Scored.Item
			if err := sys.AddFeedback(feedback.Event{
				UserID: user, ItemID: it.ID, Kind: feedback.Dislike, At: now,
			}); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(out, "dislike %s\n", it.ID)
		}
		replan, err := sys.PlanTrip(user, partial, now, nil)
		dumpTripPlan(out, "replan", replan, err)
	}
}

func dumpTripPlan(out io.Writer, label string, tp *TripPlan, err error) {
	if err != nil {
		fmt.Fprintf(out, "%s error %q\n", label, err)
		return
	}
	pr := tp.Prediction
	fmt.Fprintf(out, "%s %s proactive=%v reason=%q from=%d dest=%d conf=%x dt=%d mad=%d progress=%x route=%d\n",
		label, tp.Source, tp.Proactive, tp.Reason, pr.From, pr.Dest, math.Float64bits(pr.Confidence),
		pr.DeltaT, pr.DeltaTMAD, math.Float64bits(pr.Progress), len(pr.Route))
	pl := tp.Plan
	fmt.Fprintf(out, "plan value=%x used=%d dt=%d items=%d dropped=%d\n",
		math.Float64bits(pl.TotalValue), pl.Used, pl.DeltaT, len(pl.Items), len(pl.Dropped))
	for _, it := range pl.Items {
		fmt.Fprintf(out, "at %d deadline %v %d ", it.StartOffset, it.HasDeadline, it.Deadline)
		dumpScored(out, it.Scored)
	}
	for _, d := range pl.Dropped {
		fmt.Fprintf(out, "dropped %q ", d.Reason)
		dumpScored(out, d.Scored)
	}
}

func dumpScored(out io.Writer, sc recommend.Scored) {
	fmt.Fprintf(out, "%s content=%x context=%x compound=%x\n", sc.Item.ID,
		math.Float64bits(sc.Content), math.Float64bits(sc.Context), math.Float64bits(sc.Compound))
}
