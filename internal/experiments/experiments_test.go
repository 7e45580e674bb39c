package experiments

import (
	"bytes"
	"io"
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

// Each experiment must run green in Quick mode, emit its table and print
// exactly the shape checks its case names, each reading true.
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
