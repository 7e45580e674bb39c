package scenario

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"pphcr/internal/obs"
	"pphcr/internal/pipeline"
)

// Report is the machine-readable outcome of one scenario run.
type Report struct {
	Scenario      string  `json:"scenario"`
	Description   string  `json:"description,omitempty"`
	Seed          int64   `json:"seed"`
	Users         int     `json:"users"`
	Drivers       int     `json:"drivers"`
	Workers       int     `json:"workers"`
	RateScale     float64 `json:"rate_scale"`
	DurationScale float64 `json:"duration_scale"`
	ElapsedMs     float64 `json:"elapsed_ms"`

	Scheduled int64 `json:"scheduled_events"`
	Executed  int64 `json:"executed_events"`
	Errors    int64 `json:"errors"`
	Dropped   int64 `json:"dropped_events"`

	Phases     []PhaseReport    `json:"phases"`
	Contention ContentionReport `json:"contention"`
	Readiness  ReadinessReport  `json:"readiness"`
	Flash      *FlashReport     `json:"flash,omitempty"`
	Seconds    []SecondBucket   `json:"seconds,omitempty"`
	Verdicts   []Verdict        `json:"verdicts,omitempty"`
	SLOPass    bool             `json:"slo_pass"`
}

// PhaseReport is one phase's delta view: what happened between its
// boundary snapshots, per op and per pipeline stage.
type PhaseReport struct {
	Name         string  `json:"name"`
	StartMs      float64 `json:"start_ms"`
	EndMs        float64 `json:"end_ms"`
	TargetRate   float64 `json:"target_rate"` // mean of the phase's ramp
	AchievedRate float64 `json:"achieved_rate"`
	Executed     int64   `json:"executed"`
	Errors       int64   `json:"errors"`
	Dropped      int64   `json:"dropped"`
	ErrorRate    float64 `json:"error_rate"`

	Ops    map[string]obs.Summary `json:"ops"`
	Stages map[string]obs.Summary `json:"stages"`
	Cache  CacheDelta             `json:"cache"`

	WALAppend *obs.Summary `json:"wal_append,omitempty"`
	WALFsync  *obs.Summary `json:"wal_fsync,omitempty"`
}

// CacheDelta is the plan cache's per-phase activity.
type CacheDelta struct {
	Hits               int64   `json:"hits"`
	Misses             int64   `json:"misses"`
	Puts               int64   `json:"puts"`
	EpochInvalidations int64   `json:"epoch_invalidations"`
	UserInvalidations  int64   `json:"user_invalidations"`
	WarmHitRate        float64 `json:"warm_hit_rate"`
}

// ContentionReport is the run's write-path read-out: how often a
// writer found its commit-barrier stripe held, and how many appends one
// group-commit drain retired, on average and at most (zero without
// durability; the maximum is the WAL's since it opened). The contended
// shape is a population choice — few users under many workers on a
// write-heavy script — not a mode.
type ContentionReport struct {
	BarrierOps               int64   `json:"barrier_ops"`
	BarrierContended         int64   `json:"barrier_contended"`
	BarrierContendedFraction float64 `json:"barrier_contended_fraction"`
	GroupCommits             int64   `json:"group_commits"`
	MeanCommitBatch          float64 `json:"mean_commit_batch"`
	MaxCommitBatch           int64   `json:"max_commit_batch"`
}

// ReadinessReport summarizes the readiness sampler: dead and degraded
// are counted separately — a degraded-disk phase must raise degraded
// samples while dead stays zero.
type ReadinessReport struct {
	Samples         int64 `json:"samples"`
	DeadSamples     int64 `json:"dead_samples"`
	DegradedSamples int64 `json:"degraded_samples"`
	Flaps           int64 `json:"flaps"`
}

// FlashReport is the flash-crowd recovery outcome: the time from the
// mass invalidation until the plan cache's re-warm clock closed (the
// warm set was rebuilt to its pre-flash size).
type FlashReport struct {
	Phase            string  `json:"phase"`
	AtMs             float64 `json:"at_ms"`
	RecoveryMs       float64 `json:"recovery_ms"`
	RecoveryComplete bool    `json:"recovery_complete"`
}

// SecondBucket is one second of the run — the burn-rate evaluation's
// raw material.
type SecondBucket struct {
	Events int64 `json:"events"`
	Errors int64 `json:"errors"`
}

func summaryPtr(s obs.Snapshot) *obs.Summary {
	if s.Count == 0 {
		return nil
	}
	v := s.Summary()
	return &v
}

func (e *Engine) buildReport(script Script, events []Event, elapsed time.Duration,
	hists [][][NumOps]obs.Histogram, errCounts [][NumOps]atomic.Int64,
	dropCounts, execCounts []atomic.Int64, snaps []stateSnap,
	windows []struct{ Start, End time.Duration }, flash *flashState,
	sampler *readinessSampler, secEvents, secErrors []atomic.Int64) *Report {

	nPhases := len(script.Phases)
	r := &Report{
		Scenario:      script.Name,
		Description:   script.Description,
		Seed:          e.opts.Seed,
		Users:         len(e.pop.Users),
		Drivers:       len(e.pop.Drivers),
		Workers:       e.opts.Workers,
		RateScale:     orOne(e.opts.RateScale),
		DurationScale: orOne(e.opts.DurationScale),
		ElapsedMs:     float64(elapsed) / 1e6,
		Scheduled:     int64(len(events)),
		Executed:      e.executed.Load(),
		Errors:        e.errored.Load(),
		Dropped:       e.dropped.Load(),
	}

	// Merge the per-worker histograms into per-phase, per-op snapshots.
	for pi := 0; pi < nPhases; pi++ {
		ph := script.Phases[pi]
		var merged [NumOps]obs.Snapshot
		for w := range hists {
			for op := 0; op < int(NumOps); op++ {
				merged[op].Merge(hists[w][pi][op].Snapshot())
			}
		}

		pr := PhaseReport{
			Name:     ph.Name,
			StartMs:  float64(windows[pi].Start) / 1e6,
			EndMs:    float64(windows[pi].End) / 1e6,
			Executed: execCounts[pi].Load(),
			Dropped:  dropCounts[pi].Load(),
			Ops:      map[string]obs.Summary{},
			Stages:   map[string]obs.Summary{},
		}
		r1 := ph.Rate
		if ph.RampTo > 0 {
			r1 = ph.RampTo
		}
		pr.TargetRate = (ph.Rate + r1) / 2 * orOne(e.opts.RateScale)
		if dur := windows[pi].End - windows[pi].Start; dur > 0 {
			pr.AchievedRate = float64(pr.Executed) / dur.Seconds()
		}
		for op := 0; op < int(NumOps); op++ {
			pr.Errors += errCounts[pi][op].Load()
			if merged[op].Count > 0 {
				pr.Ops[OpNames[op]] = merged[op].Summary()
			}
		}
		if pr.Executed > 0 {
			pr.ErrorRate = float64(pr.Errors) / float64(pr.Executed)
		}

		// Per-phase pipeline stage and WAL views: deltas between the
		// phase's boundary snapshots.
		pre, post := snaps[pi], snaps[pi+1]
		for i := 0; i < pipeline.NumStages; i++ {
			d := post.stages[i].Delta(pre.stages[i])
			if d.Count > 0 {
				pr.Stages[pipeline.StageNames[i]] = d.Summary()
			}
		}
		pr.WALAppend = summaryPtr(post.wal.Delta(pre.wal))
		pr.WALFsync = summaryPtr(post.fsync.Delta(pre.fsync))

		pr.Cache = CacheDelta{
			Hits:               post.cache.Hits - pre.cache.Hits,
			Misses:             post.cache.Misses - pre.cache.Misses,
			Puts:               post.cache.Puts - pre.cache.Puts,
			EpochInvalidations: post.cache.EpochInvalidations - pre.cache.EpochInvalidations,
			UserInvalidations:  post.cache.UserInvalidations - pre.cache.UserInvalidations,
		}
		if lookups := pr.Cache.Hits + pr.Cache.Misses; lookups > 0 {
			pr.Cache.WarmHitRate = float64(pr.Cache.Hits) / float64(lookups)
		}
		r.Phases = append(r.Phases, pr)
	}

	first, last := snaps[0], snaps[len(snaps)-1]
	c := ContentionReport{
		BarrierOps:       last.barrierOps - first.barrierOps,
		BarrierContended: last.barrierContended - first.barrierContended,
		GroupCommits:     last.commits - first.commits,
		MaxCommitBatch:   last.maxCommitBatch,
	}
	if c.BarrierOps > 0 {
		c.BarrierContendedFraction = float64(c.BarrierContended) / float64(c.BarrierOps)
	}
	if c.GroupCommits > 0 {
		c.MeanCommitBatch = float64(last.commitRecords-first.commitRecords) / float64(c.GroupCommits)
	}
	r.Contention = c

	r.Readiness = ReadinessReport{
		Samples:         sampler.totalSamples.Load(),
		DeadSamples:     sampler.deadSamples.Load(),
		DegradedSamples: sampler.degrSamples.Load(),
		Flaps:           sampler.flaps.Load(),
	}

	for i := range secEvents {
		ev, er := secEvents[i].Load(), secErrors[i].Load()
		if ev == 0 && er == 0 && i > int(elapsed/time.Second) {
			break
		}
		r.Seconds = append(r.Seconds, SecondBucket{Events: ev, Errors: er})
	}

	if flash.fired {
		final := snaps[len(snaps)-1].cache
		fr := &FlashReport{
			Phase: script.Phases[flash.phase].Name,
			AtMs:  float64(flash.at) / 1e6,
		}
		if final.Rewarms > flash.rewarmsBefore {
			fr.RecoveryMs = final.LastRewarmMillis
			fr.RecoveryComplete = true
		} else {
			// Re-warm still pending at scenario end: report the censored
			// time (a lower bound on recovery).
			fr.RecoveryMs = float64(elapsed-flash.at) / 1e6
		}
		r.Flash = fr
	}
	return r
}

func orOne(v float64) float64 {
	if v <= 0 {
		return 1
	}
	return v
}

// WriteHuman renders the report for a terminal: the story of the run,
// phase by phase, with the SLO verdicts last.
func (r *Report) WriteHuman(w io.Writer) {
	fmt.Fprintf(w, "scenario %s (seed=%d): %d users, %d drivers, %d workers\n",
		r.Scenario, r.Seed, r.Users, r.Drivers, r.Workers)
	fmt.Fprintf(w, "%d/%d events executed in %.1fs — %d errors, %d shed\n\n",
		r.Executed, r.Scheduled, r.ElapsedMs/1e3, r.Errors, r.Dropped)
	for _, ph := range r.Phases {
		fmt.Fprintf(w, "phase %-12s [%6.1fs–%6.1fs] target %6.0f/s achieved %6.0f/s  errors %.3f%%  warm-hit %.0f%%\n",
			ph.Name, ph.StartMs/1e3, ph.EndMs/1e3, ph.TargetRate, ph.AchievedRate,
			100*ph.ErrorRate, 100*ph.Cache.WarmHitRate)
		for _, op := range opOrder(ph.Ops) {
			s := ph.Ops[op]
			fmt.Fprintf(w, "  op    %-10s count=%-8d p50=%9.1fµs p95=%9.1fµs p99=%9.1fµs max=%9.1fµs\n",
				op, s.Count, s.P50Micros, s.P95Micros, s.P99Micros, s.MaxMicros)
		}
		for _, st := range stageOrder(ph.Stages) {
			s := ph.Stages[st]
			fmt.Fprintf(w, "  stage %-10s count=%-8d p50=%9.1fµs p95=%9.1fµs p99=%9.1fµs max=%9.1fµs\n",
				st, s.Count, s.P50Micros, s.P95Micros, s.P99Micros, s.MaxMicros)
		}
		if ph.WALAppend != nil {
			fmt.Fprintf(w, "  wal   %-10s count=%-8d p50=%9.1fµs p95=%9.1fµs p99=%9.1fµs max=%9.1fµs\n",
				"append", ph.WALAppend.Count, ph.WALAppend.P50Micros, ph.WALAppend.P95Micros,
				ph.WALAppend.P99Micros, ph.WALAppend.MaxMicros)
		}
	}
	if r.Flash != nil {
		state := "complete"
		if !r.Flash.RecoveryComplete {
			state = "still pending at scenario end"
		}
		fmt.Fprintf(w, "\nflash crowd in %s at %.1fs: cache re-warm %.0fms (%s)\n",
			r.Flash.Phase, r.Flash.AtMs/1e3, r.Flash.RecoveryMs, state)
	}
	fmt.Fprintf(w, "\nbarrier: ops=%d contended=%d (%.3f%%)  wal: group_commits=%d mean_batch=%.1f max_batch=%d\n",
		r.Contention.BarrierOps, r.Contention.BarrierContended, 100*r.Contention.BarrierContendedFraction,
		r.Contention.GroupCommits, r.Contention.MeanCommitBatch, r.Contention.MaxCommitBatch)
	fmt.Fprintf(w, "readiness: %d samples, %d dead, %d degraded, %d flaps\n",
		r.Readiness.Samples, r.Readiness.DeadSamples, r.Readiness.DegradedSamples, r.Readiness.Flaps)
	if len(r.Verdicts) > 0 {
		fmt.Fprintf(w, "\nSLO verdicts:\n")
		for _, v := range r.Verdicts {
			mark := "PASS"
			if !v.OK {
				mark = "FAIL"
			}
			fmt.Fprintf(w, "  [%s] %-14s %-16s observed %-14s limit %s\n",
				mark, v.Phase, v.Check, v.Observed, v.Limit)
		}
		if r.SLOPass {
			fmt.Fprintf(w, "SLO: PASS\n")
		} else {
			fmt.Fprintf(w, "SLO: FAIL\n")
		}
	}
}

// opOrder returns the report's op labels in canonical order.
func opOrder(m map[string]obs.Summary) []string {
	var out []string
	for _, name := range OpNames {
		if _, ok := m[name]; ok {
			out = append(out, name)
		}
	}
	return out
}

// stageOrder returns the pipeline stage labels in stage order.
func stageOrder(m map[string]obs.Summary) []string {
	var out []string
	for _, name := range pipeline.StageNames {
		if _, ok := m[name]; ok {
			out = append(out, name)
		}
	}
	// Any unknown stage labels (future-proofing) go last, sorted.
	var extra []string
	known := make(map[string]bool, len(out))
	for _, n := range out {
		known[n] = true
	}
	for n := range m {
		if !known[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}
