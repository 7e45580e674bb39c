// Package experiments regenerates every figure and evaluates every
// quantitative claim of the paper (docs/experiments.md is the index).
// Each experiment prints a table in a stable text format and fails when
// one of its shape checks reads false.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"pphcr"
	"pphcr/internal/synth"
)

// Config drives an experiment run.
type Config struct {
	// Out receives the experiment report.
	Out io.Writer
	// Seed makes runs reproducible.
	Seed int64
	// Quick shrinks workloads for CI/tests.
	Quick bool

	// checks records the run's shape checks; Runner.exec sets it.
	checks *checks
}

// checks records the outcome of each shape check one run prints.
type checks struct {
	ok     map[string]bool
	failed []string
}

// check prints one line, "shape check: " + claim + ": <ok>", with claim
// formatted from args, and records ok under name: the claim without its
// measured values.
func (c Config) check(name string, ok bool, claim string, args ...any) {
	fmt.Fprintf(c.Out, "shape check: "+claim+": %v\n", append(args, ok)...)
	c.checks.ok[name] = ok
	if !ok {
		c.checks.failed = append(c.checks.failed, name)
	}
}

func (c Config) seed() int64 {
	if c.Seed == 0 {
		return 2017 // the paper's year
	}
	return c.Seed
}

// Runner is one registered experiment.
type Runner struct {
	ID    string
	Title string
	run   func(Config) error
}

// All returns every experiment in presentation order.
func All() []Runner {
	return []Runner{
		{"F1", "Fig 1 — audio replacement concept", runF1},
		{"F2", "Fig 2 — proactive trip allocation", runF2},
		{"F3", "Fig 3 — architecture pipeline", runF3},
		{"F4", "Fig 4 — Lilly timeline with time-shift", runF4},
		{"F5", "Fig 5 — dashboard trajectory map", runF5},
		{"F6", "Fig 6 — editorial injection", runF6},
		{"Q1", "Ranking quality vs baselines", runQ1},
		{"Q2", "Listening behaviour simulation", runQ2},
		{"Q3", "Mobility prediction vs history", runQ3},
		{"Q4", "Classifier accuracy vs ASR WER", runQ4},
		{"Q5", "Network resource optimization", runQ5},
		{"Q6", "Tracking compaction quality", runQ6},
	}
}

// exec runs the experiment and returns each shape check's outcome by
// name. It fails when the experiment does or when a check reads false.
func (r Runner) exec(cfg Config) (map[string]bool, error) {
	cfg.checks = &checks{ok: map[string]bool{}}
	if err := r.run(cfg); err != nil {
		return cfg.checks.ok, err
	}
	if f := cfg.checks.failed; len(f) > 0 {
		return cfg.checks.ok, fmt.Errorf("shape check failed: %s", strings.Join(f, "; "))
	}
	return cfg.checks.ok, nil
}

// RunAll executes every experiment against the same config.
func RunAll(cfg Config) error {
	for _, r := range All() {
		fmt.Fprintf(cfg.Out, "\n================================================================\n")
		fmt.Fprintf(cfg.Out, "%s: %s\n", r.ID, r.Title)
		fmt.Fprintf(cfg.Out, "================================================================\n")
		if _, err := r.exec(cfg); err != nil {
			return fmt.Errorf("experiment %s: %w", r.ID, err)
		}
	}
	return nil
}

// Run executes one experiment by ID. It fails when the experiment does
// or when one of its shape checks reads false.
func Run(id string, cfg Config) error {
	_, err := run(id, cfg)
	return err
}

// run is Run that also returns each shape check's outcome by name.
func run(id string, cfg Config) (map[string]bool, error) {
	for _, r := range All() {
		if r.ID == id {
			return r.exec(cfg)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}

// env is the shared evaluation environment: a synthetic world plus a
// fully loaded System.
type env struct {
	World *synth.World
	Sys   *pphcr.System
	// Now is "evaluation time": just after the last corpus item.
	Now time.Time
}

// worldParams sizes the world by mode.
func worldParams(cfg Config) synth.Params {
	p := synth.Params{Seed: cfg.seed()}
	if cfg.Quick {
		p.Days = 5
		p.Users = 6
		p.Stations = 4
		p.PodcastsPerDay = 40
		p.TrainingDocsPerCategory = 10
	} else {
		p.Days = 14
		p.Users = 20
		p.Stations = 10
		p.PodcastsPerDay = 100
		p.TrainingDocsPerCategory = 30
	}
	return p
}

// newEnv generates the world, builds the system, ingests the corpus
// and registers the personas.
func newEnv(cfg Config) (*env, error) {
	w, err := synth.GenerateWorld(worldParams(cfg))
	if err != nil {
		return nil, err
	}
	sys, err := pphcr.NewWorld(w, cfg.seed())
	if err != nil {
		return nil, err
	}
	if err := sys.IngestAll(w.Corpus); err != nil {
		return nil, err
	}
	for _, p := range w.Personas {
		if err := sys.RegisterUser(p.Profile); err != nil {
			return nil, err
		}
	}
	return &env{World: w, Sys: sys, Now: w.LastPublished().Add(time.Hour)}, nil
}

// trackPersona feeds `days` of the persona's commutes into the tracker
// and compacts.
func (e *env) trackPersona(p *synth.Persona, days int) error {
	trace, err := e.World.Commutes(p, e.World.Params.StartDate, days)
	if err != nil {
		return err
	}
	if err := e.Sys.RecordTrace(p.Profile.UserID, trace); err != nil {
		return err
	}
	_, err = e.Sys.CompactTracking(p.Profile.UserID)
	return err
}

// table is a minimal fixed-width text table writer.
type table struct {
	header []string
	rows   [][]string
}

func newTable(header ...string) *table { return &table{header: header} }

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(out io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(out, "  ")
			}
			if i < len(widths) {
				fmt.Fprintf(out, "%-*s", widths[i], c)
			} else {
				fmt.Fprint(out, c)
			}
		}
		fmt.Fprintln(out)
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i, w := range widths {
		sep[i] = repeat('-', w)
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
}

func repeat(ch byte, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = ch
	}
	return string(b)
}
