package pipeline

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"pphcr/internal/content"
	"pphcr/internal/core"
	"pphcr/internal/geo"
	"pphcr/internal/recommend"
)

// admissionSeed, when set, runs TestAdmissionRowRejectsOnlyWhatRejectsRejects
// on that one instance — the repro a failure prints.
var admissionSeed = flag.Int64("admission.seed", -1, "run the admission-row property test on this seed only")

// admissionDuration draws an item duration for a plan of capacity slots:
// on the quantum, a nanosecond either side of it, whole seconds, past the
// capacity, and long enough to saturate Features.Slots.
func admissionDuration(rng *rand.Rand, capacity int) time.Duration {
	w := time.Duration(1 + rng.Intn(max(capacity, 1)))
	switch rng.Intn(8) {
	case 0, 1:
		return w * content.Slot
	case 2:
		return w*content.Slot + time.Duration(rng.Intn(3)-1)
	case 3:
		return time.Duration(capacity+1+rng.Intn(40)) * content.Slot
	case 4:
		return time.Duration(math.MaxUint16-1+rng.Intn(3)) * content.Slot
	default:
		return time.Duration(1+rng.Intn(max(capacity, 1)*15)) * time.Second
	}
}

// TestAdmissionRowRejectsOnlyWhatRejectsRejects: whenever an item's
// admission row rejects it on its dot product, Selection.Rejects refuses
// it on its exact compound — the cosine divided out, and the reference
// scorer's context score. Over seeded instances it draws the context
// weight; the plan's capacity, from none to past MaxUint16 slots; plain
// and rich contexts, clear weather and a position that is not a number
// among them; items of every kind and unknown ones, with and without a
// scope, with negative weather and traffic weights and norms from the
// smallest positive up; and cosines from 1 down to 2⁻¹¹⁰⁰. It raises class
// floors to 0, to positive values, to one ulp either side of a probe's
// own value and to a probe's value at a subnormal dot product (a class
// with room, or tiny compounds, leave −∞ and negative floors), and probes
// dot products at random, subnormal, and within ulps of the row's
// threshold.
func TestAdmissionRowRejectsOnlyWhatRejectsRejects(t *testing.T) {
	first, last := int64(0), int64(600)
	if *admissionSeed >= 0 {
		first, last = *admissionSeed, *admissionSeed+1
	}
	cats := []string{"sport", "food", "weather", "traffic", "music"}
	var rowRejected, atThreshold int
	for seed := first; seed < last; seed++ {
		rng := rand.New(rand.NewSource(seed))
		repro := fmt.Sprintf("repro: go test ./internal/pipeline -run TestAdmissionRowRejectsOnlyWhatRejectsRejects -admission.seed=%d", seed)

		lambda := oracleLambdas[rng.Intn(len(oracleLambdas))]
		deltaT := time.Duration(rng.Int63n(int64(90 * time.Minute)))
		if rng.Intn(20) == 0 {
			deltaT = 300 * time.Hour // more slots than Features.Slots counts
		}
		ctx := recommend.Context{
			Now: testEpoch.Add(time.Duration(rng.Intn(24)) * time.Hour), Position: testRoute[0], Route: testRoute,
			SpeedMS: 12, DeltaT: deltaT, Driving: true,
		}
		if rng.Intn(2) == 0 {
			ctx.Weather = recommend.Weather(rng.Intn(6))
			ctx.Activity = recommend.Activity(rng.Intn(5))
		}
		if rng.Intn(6) == 0 {
			ctx.Route = nil
			if rng.Intn(2) == 0 {
				ctx.Position = geo.Point{Lat: math.NaN()}
			}
		}

		repo := content.NewRepository()
		capacity := int(deltaT / content.Slot)
		for i := 0; i < 40; i++ {
			it := &content.Item{
				ID:         fmt.Sprintf("it-%02d", i),
				Kind:       content.Kind(rng.Intn(6)),
				Duration:   admissionDuration(rng, min(capacity, 400)),
				Published:  testEpoch,
				Categories: map[string]float64{},
			}
			scale := []float64{1, 1, 1e-100, 0x1p-537, 1e100}[rng.Intn(5)]
			for _, c := range rng.Perm(len(cats))[:1+rng.Intn(3)] {
				it.Categories[cats[c]] = scale * (0.1 + rng.Float64())
				if (cats[c] == "weather" || cats[c] == "traffic") && rng.Intn(2) == 0 {
					it.Categories[cats[c]] = -10 * scale * rng.Float64()
				}
			}
			if rng.Intn(4) == 0 {
				it.Geo = &content.GeoRelevance{Center: testRoute.At(rng.Float64()), Radius: 300 + rng.Float64()*1000}
			}
			if err := repo.Add(it); err != nil {
				t.Fatal(err)
			}
		}

		scorer := recommend.NewScorer(lambda)
		deps := Deps{Catalog: repo.ReadView, Scorer: scorer}
		set := new(candSet)
		set.start(&deps, ctx.Now)
		set.fp.sqrtNa = []float64{1, 0.1 + 3*rng.Float64(), 0x1p-537, 1e-100, 1e100}[rng.Intn(5)]
		sel := new(core.Selection)
		sel.Reset(deltaT)
		r := ranking{
			s: &indexRank{deps: deps}, t: &Task{Mode: ModeLive, Now: ctx.Now, Ctx: ctx}, set: set, sel: sel,
			rich: ctx.Weather != recommend.WeatherUnknown || ctx.Activity != recommend.ActivityUnknown,
		}
		r.startRows()

		// raise fills the class of an item of duration d with items of
		// compound x, so its floor becomes x·d.Seconds() unless it is
		// already higher. A compound is finite: a cosine is at most 1.
		floors := map[int]float64{}
		raise := func(d time.Duration, x float64) {
			w := content.SlotsOf(d)
			if w == 0 || w > capacity || capacity/w > 400 || math.IsInf(x, 0) || math.IsNaN(x) {
				return
			}
			if f, ok := floors[w]; ok && x*d.Seconds() <= f {
				return
			}
			floors[w] = x * d.Seconds()
			filler := &content.Item{ID: "filler", Duration: d}
			for k := 0; k < capacity/w; k++ {
				r.keep(recommend.Scored{Item: filler, Compound: x})
			}
		}
		for probe := 0; probe < 200; probe++ {
			seq := int32(rng.Intn(set.view.Len()))
			f, it := set.view.At(seq), set.view.Item(seq)
			ctxScore := scorer.ContextScore(it, ctx)
			exact := func(dot float64) float64 {
				return scorer.Compound(dot/set.fp.sqrtNa/f.SqrtNorm, ctxScore)
			}
			cos := rng.Float64()
			if rng.Intn(3) == 0 {
				cos = math.Ldexp(cos, -rng.Intn(1100)) // down to subnormal dot products
			}
			dot := set.fp.sqrtNa * f.SqrtNorm * cos
			switch rng.Intn(7) {
			case 0:
				raise(f.Duration, 0)
			case 1:
				raise(f.Duration, rng.Float64()*1.2)
			case 2, 3:
				x := exact(dot)
				raise(f.Duration, math.Nextafter(x, x+float64(rng.Intn(3)-1)))
			case 4:
				raise(f.Duration, -0x1p-1074)
			case 5:
				raise(f.Duration, exact(0x1p-1074*float64(1+rng.Intn(4))))
			}
			if set.last > 0 {
				c := min(int(f.Kind), rowCols-1)
				if f.HasGeo {
					c = rowCols - 1
				}
				switch th := set.rows[min(int(f.Slots), set.last)*rowCols+c] * f.SqrtNorm; {
				case rng.Intn(4) == 0:
					dot = 0x1p-1074 * float64(1+rng.Intn(4))
				case th > 0 && !math.IsInf(th, 1) && rng.Intn(3) > 0:
					dot = th
					for steps := rng.Intn(5) - 2; steps != 0; {
						if steps > 0 {
							dot, steps = math.Nextafter(dot, math.Inf(1)), steps-1
						} else {
							dot, steps = math.Nextafter(dot, math.Inf(-1)), steps+1
						}
					}
				}
			}
			// A dot product is positive and, by Cauchy–Schwarz, at most √Na·√Ni.
			if !(dot > 0 && dot <= set.fp.sqrtNa*f.SqrtNorm) || set.last == 0 || !set.rowRejects(f, dot) {
				continue
			}
			rowRejected++
			if !set.rowRejects(f, dot*(1+1e-12)) {
				atThreshold++
			}
			if bound := exact(dot); !sel.Rejects(f.Duration, bound) {
				t.Fatalf("seed %d, probe %d: the row rejects %s (kind %d, geo %v, %v, √Ni %g) at dot %g, but Rejects admits its compound %v against a floor near %v (λ %v, ctx %v, √Na %g)\n%s",
					seed, probe, it.ID, f.Kind, f.HasGeo, f.Duration, f.SqrtNorm, dot, bound, floors[content.SlotsOf(f.Duration)], lambda, ctxScore, set.fp.sqrtNa, repro)
			}
		}
	}
	t.Logf("%d row rejections checked, %d of them within ulps of the threshold", rowRejected, atThreshold)
	if *admissionSeed < 0 && (rowRejected < 1000 || atThreshold < 100) {
		t.Fatalf("only %d row rejections, %d at the threshold: the instances do not exercise the rows", rowRejected, atThreshold)
	}
}
