package httpapi

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// TestPlanViewRenderMatchesEncoder: whenever appendPlanView accepts a
// view its bytes are json.Encoder's.
func TestPlanViewRenderMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	strs := []string{"", "it-0001", "Morning news", "does not fit remaining ΔT", "café", `say "hi"`, `a\b`, "a<b", "x>y", "R&B",
		"line\nbreak", "tab\t", "\u2028", "\u2029", "“quoted”", "bad\xffutf8", "\x7f", "日本語"}
	floats := []float64{0, 1, -1, 1e-7, -1e-7, 1e-6, 9.99e-7, 1e21, 1e22, -1e22, 9.99e20, 0.1, 1.0 / 3, 123456789.125, 5e-324,
		math.MaxFloat64, math.Copysign(0, -1), 1e-9, 1.5e-10, 2e100}
	str := func() string { return strs[rng.Intn(len(strs))] }
	float := func() float64 {
		if rng.Intn(2) == 0 {
			return floats[rng.Intn(len(floats))]
		}
		return (rng.Float64() - 0.3) * math.Pow(10, float64(rng.Intn(30)-12))
	}
	n, accepted := 100_000, 0
	if testing.Short() {
		n = 10_000
	}
	var want bytes.Buffer
	var got []byte
	for i := 0; i < n; i++ {
		v := PlanView{Proactive: rng.Intn(2) == 0, Destination: rng.Intn(9) - 1, Confidence: float(), DeltaTSeconds: rng.Intn(4000)}
		if rng.Intn(3) == 0 {
			v.Reason = str()
		}
		if rng.Intn(4) != 0 {
			v.Served = []string{"warm", "cold", "replica"}[rng.Intn(3)]
		}
		switch k := rng.Intn(6); k {
		case 0: // nil: "items":null
		case 1:
			v.Items = []PlanItemView{}
		default:
			for j := 0; j < k; j++ {
				v.Items = append(v.Items, PlanItemView{ItemID: str(), Title: str(), StartSeconds: rng.Intn(3000),
					Seconds: rng.Intn(900), Deadline: rng.Intn(3) * rng.Intn(2000), Compound: float()})
			}
		}
		for j := rng.Intn(3); j > 0; j-- {
			v.DroppedReasons = append(v.DroppedReasons, str())
		}
		var ok bool
		got, ok = appendPlanView(got[:0], &v)
		if !ok {
			continue
		}
		accepted++
		want.Reset()
		if err := json.NewEncoder(&want).Encode(&v); err != nil {
			t.Fatalf("appendPlanView accepted %+v, the encoder says %v", v, err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("view %+v\n got %s\nwant %s", v, got, want.Bytes())
		}
	}
	if accepted < n/20 || accepted > n-n/20 {
		t.Fatalf("accepted %d of %d views; both sides must be exercised", accepted, n)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1)} {
		if _, ok := appendPlanView(nil, &PlanView{Confidence: f}); ok {
			t.Fatalf("accepted confidence %v", f)
		}
	}
}
