package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func quickCfg(buf *bytes.Buffer) Config {
	return Config{Out: buf, Seed: 2017, Quick: true}
}

// quickCases lists every registered experiment, in All() order: the
// substrings its report must contain and the shape checks (who wins,
// what direction the curve bends) it must print, each reading true.
var quickCases = []struct {
	id       string
	expected []string
	checks   []string
}{
	{"F1", []string{"seamless: yes", "clip"}, nil},
	{"F2", []string{"predicted ΔT", "ΔT used", "deadline"}, nil},
	{"F3", []string{"ASR → Bayes pipeline", "recommender"}, nil},
	{"F4", []string{"10:42:30", "timeshift", "max buffer depth"}, nil},
	{"F5", []string{"staying points (DBSCAN)", "SVG artifact"}, nil},
	{"F6", []string{"pinned at rank 1", "inject-once"}, nil},
	{"Q1", []string{"pphcr-compound", "random", "P@5"},
		[]string{"personalized > random"}},
	{"Q2", []string{"linear radio", "pphcr (proactive)", "skip rate"},
		[]string{"pphcr skip rate < linear", "pphcr switches/h < linear"}},
	{"Q3", []string{"dest top-1 acc", "ΔT MAPE"},
		[]string{"accuracy with full history ≥ shortest history"}},
	{"Q4", []string{"WER", "segment accuracy", "full-doc accuracy"},
		[]string{"segment accuracy degrades with WER", "long documents are robust"}},
	{"Q5", []string{"hybrid content radio", "pure IP streaming", "saved"}, nil},
	{"Q6", []string{"DBSCAN", "RDP", "max error"}, nil},
}

// quickSHA256 pins each experiment's whole quick report, seed 2017, as
// the SHA-256 of its bytes: a change that should leave every figure and
// table as it is must leave these as they are. A change that moves a
// report on purpose rewrites its line and says why. Like TestPlanGolden,
// the pins hold amd64's float bits; other architectures skip them.
var quickSHA256 = map[string]string{
	"F1": "59223e8f9687b8046e8b74242c07c31648c135b8fc3a9e44d1e42dba8053552a",
	"F2": "27a1cc146c426a5a19e4bdd749f0e3712c1c69ecb98c76480663cdf28ffbb8dd",
	"F3": "9d790127f3d59f4a9efe4fcaa76e9e0d710ef1bfcc5f4019707eea566aaaca1a",
	"F4": "739da1cdaf5ad87df1785e17acd9a829d2c0209f3858aa0b95959a8c6e231ddc",
	"F5": "393a59c4ff1f30613a62f974f018463224241c6ee2530c0eb1e57de825317f92",
	"F6": "83444eaa37aba5a024748d27d4acef97af31947f503ea9267bb61405dc9b5a91",
	"Q1": "f08ad616af1970b54b3e2a977d39b2d6ceaafb129a7103d492ab9931027e6eb3",
	"Q2": "d9bf7cd0bb402668ab515c76afa9fcbb9db8346b0f8d10c9ed5bf2f59af5795a",
	"Q3": "dfd2aa602fe342643d116bb214189cb6a9cc90c9f2d07f0b6445821445b28630",
	"Q4": "9eb4672116fc0bd956aac217d8b046af999d910696f78539b3f5877b07d6b15e",
	"Q5": "fa1eae6d513d7496d3668fac2a985c445c2182fa77130928546caa6a78a6d75d",
	"Q6": "8d0e7aec4cff9e4446af882be2401af5451a6e00c92f6252b9c87680adbcaa10",
}

// Each experiment must run green in Quick mode, emit its table and print
// exactly the shape checks its case names, each reading true, and its
// report must hash to its quickSHA256 pin.
func TestExperimentsQuick(t *testing.T) {
	for _, c := range quickCases {
		t.Run(c.id, func(t *testing.T) {
			var buf bytes.Buffer
			got, err := run(c.id, quickCfg(&buf))
			if err != nil {
				t.Errorf("%s failed: %v", c.id, err)
			}
			for _, name := range c.checks {
				ok, printed := got[name]
				switch {
				case !printed:
					t.Errorf("%s: shape check %q not printed", c.id, name)
				case !ok:
					t.Errorf("%s: shape check %q reads false", c.id, name)
				}
			}
			if len(got) != len(c.checks) {
				t.Errorf("%s printed shape checks %v, the case names %q", c.id, got, c.checks)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got, want := hex.EncodeToString(sum[:]), quickSHA256[c.id]; got != want && runtime.GOARCH == "amd64" {
				t.Errorf("%s report SHA-256 = %s, pinned %s", c.id, got, want)
			}
			out := buf.String()
			for _, want := range c.expected {
				if !strings.Contains(out, want) {
					t.Errorf("%s output missing %q", c.id, want)
				}
			}
			if t.Failed() {
				t.Logf("output:\n%s", out)
			}
		})
	}
}

func TestRunUnknownID(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("ZZ", quickCfg(&buf)); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// The registry lists each experiment once, and the test table lists the
// same ones in the same order: an experiment without a test case fails
// here.
func TestAllRegistryDistinct(t *testing.T) {
	var registered, tested []string
	for _, r := range All() {
		if slices.Contains(registered, r.ID) {
			t.Fatalf("duplicate experiment %s", r.ID)
		}
		if r.Title == "" || r.run == nil {
			t.Fatalf("experiment %s incomplete", r.ID)
		}
		registered = append(registered, r.ID)
	}
	for _, c := range quickCases {
		tested = append(tested, c.id)
	}
	if !slices.Equal(registered, tested) {
		t.Fatalf("All() = %v, TestExperimentsQuick covers %v", registered, tested)
	}
}

// BenchmarkExperiments runs every registered experiment end to end in
// Quick mode, one sub-benchmark per ID.
func BenchmarkExperiments(b *testing.B) {
	cfg := Config{Out: io.Discard, Seed: 2017, Quick: true}
	for _, r := range All() {
		b.Run(r.ID, func(b *testing.B) {
			for b.Loop() {
				if _, err := r.exec(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
