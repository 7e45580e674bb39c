package scenario

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pphcr"
	"pphcr/internal/content"
	"pphcr/internal/feedback"
	"pphcr/internal/obs"
	"pphcr/internal/pipeline"
	"pphcr/internal/plancache"
	"pphcr/internal/recommend"
	"pphcr/internal/synth"
	"pphcr/internal/trajectory"
)

// Driver is a prepared simulated commuter: registered, with a mobility
// model compacted from commute traces and a partial morning trace to
// plan against. Plan, fix and shift events target drivers; the rest of
// the population serves read and feedback traffic.
type Driver struct {
	User    string
	Partial trajectory.Trace
	PlanAt  time.Time
	// fixClock hands out monotonically increasing fix timestamps (unix
	// seconds) so concurrent fix events for the same driver never clash.
	// fixMu is held from stamping a fix until it is recorded, so the
	// fixes reach the tracker in the order they were stamped in.
	fixMu    sync.Mutex
	fixClock int64
	fixPoint trajectory.Fix
}

// Population is the simulated city: every registered user, the driver
// subset, the live item set, and the held-back corpus slice that serves
// run-phase ingests and the flash-crowd breaking item.
type Population struct {
	Users    []string
	Drivers  []*Driver
	Items    []*content.Item
	Reserved []content.RawPodcast
	World    *synth.World
	// WorldEnd is the end of the synthetic content window; ReadAt is the
	// timestamp every read op uses (strictly after all feedback times so
	// preference reads stay on the incremental index).
	WorldEnd time.Time
	ReadAt   time.Time
}

// BuildPopulation ingests the world's corpus (holding back a slice),
// registers base personas, prepares driverCount drivers, and clones
// personas until the registered population reaches users — the
// persona-cloning trick that reaches city scale (100k–1M) without
// generating a city-sized world. logf may be nil.
func BuildPopulation(sys *pphcr.System, w *synth.World, users, driverCount int, logf func(string, ...interface{})) (*Population, error) {
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	reserveN := len(w.Corpus) / 10
	if reserveN > 100 {
		reserveN = 100
	}
	if reserveN < 1 && len(w.Corpus) > 1 {
		reserveN = 1
	}
	corpus, reserved := w.Corpus[:len(w.Corpus)-reserveN], w.Corpus[len(w.Corpus)-reserveN:]
	start := time.Now()
	if err := sys.IngestAll(corpus); err != nil {
		return nil, fmt.Errorf("scenario: preload ingest: %w", err)
	}
	logf("ingested %d podcasts (%d reserved) in %v", len(corpus), reserveN, time.Since(start).Round(time.Millisecond))

	pop := &Population{Reserved: reserved, World: w}
	pop.WorldEnd = w.Params.StartDate.AddDate(0, 0, w.Params.Days)
	pop.ReadAt = pop.WorldEnd.Add(time.Hour)

	// Register base personas and prepare drivers from them.
	start = time.Now()
	if driverCount > len(w.Personas) {
		driverCount = len(w.Personas)
	}
	for _, p := range w.Personas {
		if err := sys.RegisterUser(p.Profile); err != nil {
			return nil, fmt.Errorf("scenario: register persona: %w", err)
		}
		pop.Users = append(pop.Users, p.Profile.UserID)
	}
	for _, p := range w.Personas {
		if len(pop.Drivers) >= driverCount {
			break
		}
		d, err := prepareDriver(sys, w, p)
		if err != nil {
			continue // sparse persona: still serves feedback traffic
		}
		pop.Drivers = append(pop.Drivers, d)
	}
	if len(pop.Drivers) == 0 {
		return nil, fmt.Errorf("scenario: no driver could be prepared")
	}
	logf("prepared %d drivers in %v", len(pop.Drivers), time.Since(start).Round(time.Millisecond))

	// Clone personas to city scale. Clones share a base persona's
	// profile under a unique ID: cheap to register, real to serve.
	start = time.Now()
	for i := len(pop.Users); i < users; i++ {
		p := w.Personas[i%len(w.Personas)].Profile
		p.UserID = fmt.Sprintf("%s-s%06d", p.UserID, i)
		if err := sys.RegisterUser(p); err != nil {
			return nil, fmt.Errorf("scenario: register clone: %w", err)
		}
		pop.Users = append(pop.Users, p.UserID)
	}
	if users > 0 {
		// A population smaller than the persona set keeps only its first
		// users: few users under many workers is the contended write shape.
		if users < len(pop.Users) {
			pop.Users = pop.Users[:users]
		}
		logf("population %d users (%d drivers) in %v", len(pop.Users), len(pop.Drivers), time.Since(start).Round(time.Millisecond))
	}

	pop.Items = sys.Candidates(pop.WorldEnd)
	if len(pop.Items) == 0 {
		pop.Items = sys.Repo.All()
	}
	if len(pop.Items) == 0 {
		return nil, fmt.Errorf("scenario: empty item set")
	}
	return pop, nil
}

// prepareDriver feeds the commutes of the world's first two days,
// compacts the mobility model and cuts a 3-minute partial trace of the
// next weekday's morning commute.
func prepareDriver(sys *pphcr.System, w *synth.World, p *synth.Persona) (*Driver, error) {
	user := p.Profile.UserID
	trace, err := w.Commutes(p, w.Params.StartDate, 2)
	if err != nil {
		return nil, err
	}
	if err := sys.RecordTrace(user, trace); err != nil {
		return nil, err
	}
	if _, err := sys.CompactTracking(user); err != nil {
		return nil, err
	}
	day := synth.NextWeekday(w.Params.StartDate.AddDate(0, 0, w.Params.Days))
	full, _, err := w.CommuteTrace(p, day, true)
	if err != nil {
		return nil, err
	}
	// A copy: a driver lives as long as the run and needs only the head.
	partial := slices.Clone(full.Head(3 * time.Minute))
	if len(partial) == 0 {
		return nil, fmt.Errorf("empty partial trace for %s", user)
	}
	d := &Driver{
		User:     user,
		Partial:  partial,
		PlanAt:   partial[len(partial)-1].Time,
		fixPoint: partial[len(partial)-1],
		fixClock: partial[len(partial)-1].Time.Unix() + 3600,
	}
	return d, nil
}

// Options configure an engine run.
type Options struct {
	Seed    int64
	Workers int // worker goroutines (default GOMAXPROCS)
	// RateScale multiplies every phase rate, DurationScale every phase
	// duration — CI shrinks a city to a smoke test with these.
	RateScale     float64
	DurationScale float64
	// Buffer is the open-loop dispatch queue depth; arrivals that find
	// it full are shed and counted (default 4096).
	Buffer int
	// RecordAcks keeps every successfully acknowledged feedback event —
	// the zero-lost-acked-writes oracle for the degraded-fsync test.
	RecordAcks bool
	Logf       func(string, ...interface{})
}

// Engine drives scenario scripts against one live System.
type Engine struct {
	sys  *pphcr.System
	dur  *pphcr.Durability // optional: fault injection + readiness sampling
	pop  *Population
	opts Options

	// Live state, exported as pphcr_scenario_* gauges while running.
	running  atomic.Bool
	phaseIdx atomic.Int64
	executed atomic.Int64
	errored  atomic.Int64
	dropped  atomic.Int64

	regNext    atomic.Int64
	ingestNext atomic.Int64

	ackMu sync.Mutex
	acks  []feedback.Event
}

// NewEngine builds an engine over a prepared population. dur may be nil
// (no durability: degraded-fsync phases become no-ops and readiness
// sampling trivially passes).
func NewEngine(sys *pphcr.System, dur *pphcr.Durability, pop *Population, opts Options) *Engine {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Buffer <= 0 {
		opts.Buffer = 4096
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...interface{}) {}
	}
	return &Engine{sys: sys, dur: dur, pop: pop, opts: opts}
}

// Acks returns the acknowledged feedback events recorded when
// Options.RecordAcks is set (the crash oracle's expected set).
func (e *Engine) Acks() []feedback.Event {
	e.ackMu.Lock()
	defer e.ackMu.Unlock()
	out := make([]feedback.Event, len(e.acks))
	copy(out, e.acks)
	return out
}

// RegisterMetrics exposes the run's live state as pphcr_scenario_*
// families so a scrape during a run sees the scenario progressing.
func (e *Engine) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterGauge("pphcr_scenario_running", "1 while a scenario run is in flight.",
		nil, func() float64 {
			if e.running.Load() {
				return 1
			}
			return 0
		})
	reg.RegisterGauge("pphcr_scenario_phase", "Index of the phase currently executing.",
		nil, func() float64 { return float64(e.phaseIdx.Load()) })
	reg.RegisterCounter("pphcr_scenario_events_total", "Scenario events executed.",
		nil, func() float64 { return float64(e.executed.Load()) })
	reg.RegisterCounter("pphcr_scenario_errors_total", "Scenario events that returned an error.",
		nil, func() float64 { return float64(e.errored.Load()) })
	reg.RegisterCounter("pphcr_scenario_dropped_total", "Open-loop arrivals shed because the dispatch queue was full.",
		nil, func() float64 { return float64(e.dropped.Load()) })
}

// stateSnap is the cumulative-counter snapshot taken at every phase
// boundary; per-phase views are deltas between consecutive snaps.
type stateSnap struct {
	at     time.Duration
	stages [pipeline.NumStages]obs.Snapshot
	cache  plancache.Stats
	wal    obs.Snapshot // WAL append latency (zero when no durability)
	fsync  obs.Snapshot
	// Commit-barrier and group-commit counters behind Report.Contention.
	barrierOps, barrierContended int64
	commits, commitRecords       int64
	maxCommitBatch               int64 // the WAL's largest drain so far
}

func (e *Engine) snapshotState(since time.Time) stateSnap {
	s := stateSnap{at: time.Since(since)}
	pipe := e.sys.Pipeline()
	for i := 0; i < pipeline.NumStages; i++ {
		s.stages[i] = pipe.StageHistogram(i).Snapshot()
	}
	s.cache = e.sys.PlanCache.Stats()
	barrier := e.sys.LockStats().Barrier
	s.barrierOps, s.barrierContended = barrier.Ops, barrier.Contended
	if e.dur != nil {
		s.wal = e.dur.WALAppendHistogram().Snapshot()
		s.fsync = e.dur.WALFsyncHistogram().Snapshot()
		wal := e.dur.Stats().WAL
		s.commits, s.commitRecords, s.maxCommitBatch = wal.GroupCommits, wal.GroupCommitRecords, wal.MaxCommitBatch
	}
	return s
}

// Run executes the script and returns its report. One Run per Engine at
// a time; the engine's own counters reset at entry.
func (e *Engine) Run(script Script) (*Report, error) {
	if len(script.Phases) == 0 {
		return nil, fmt.Errorf("scenario: script %q has no phases", script.Name)
	}
	if e.running.Swap(true) {
		return nil, fmt.Errorf("scenario: engine already running")
	}
	defer e.running.Store(false)
	e.executed.Store(0)
	e.errored.Store(0)
	e.dropped.Store(0)

	events := script.Schedule(e.opts.Seed, e.opts.RateScale, e.opts.DurationScale)
	windows := script.PhaseWindows(e.opts.DurationScale)
	nPhases := len(script.Phases)
	e.opts.Logf("scenario %s: %d events over %d phases (%d workers, %d users, %d drivers)",
		script.Name, len(events), nPhases, e.opts.Workers, len(e.pop.Users), len(e.pop.Drivers))

	// Per-worker, per-phase, per-op histograms (merged at the end) and
	// shared per-phase atomics for errors, drops and burn windows.
	hists := make([][][NumOps]obs.Histogram, e.opts.Workers)
	for w := range hists {
		hists[w] = make([][NumOps]obs.Histogram, nPhases)
	}
	errCounts := make([][NumOps]atomic.Int64, nPhases)
	dropCounts := make([]atomic.Int64, nPhases)
	execCounts := make([]atomic.Int64, nPhases)
	outstanding := make([]atomic.Int64, nPhases)

	totalDur := windows[nPhases-1].End
	nSecs := int(totalDur/time.Second) + 5
	secEvents := make([]atomic.Int64, nSecs)
	secErrors := make([]atomic.Int64, nSecs)

	ch := make(chan Event, e.opts.Buffer)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < e.opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ev := range ch {
				t0 := time.Now()
				err := e.exec(ev)
				d := time.Since(t0)
				hists[w][ev.Phase][ev.Op].Observe(d)
				execCounts[ev.Phase].Add(1)
				e.executed.Add(1)
				if err != nil {
					errCounts[ev.Phase][ev.Op].Add(1)
					e.errored.Add(1)
				}
				if sec := int(time.Since(start) / time.Second); sec >= 0 && sec < nSecs {
					secEvents[sec].Add(1)
					if err != nil {
						secErrors[sec].Add(1)
					}
				}
				outstanding[ev.Phase].Add(-1)
			}
		}(w)
	}

	// Readiness sampler: dead (Healthy ≠ nil) and degraded (Degraded ≠
	// nil) are different states; flaps count dead↔alive transitions.
	sampler := newReadinessSampler(e.dur)
	stopSampler := sampler.start()

	// Dispatch open-loop: phases in order, faults at entry, drain and
	// snapshot at exit.
	snaps := make([]stateSnap, 0, nPhases+1)
	snaps = append(snaps, e.snapshotState(start))
	var flash flashState
	evIdx := 0
	for pi := 0; pi < nPhases; pi++ {
		e.phaseIdx.Store(int64(pi))
		e.applyFaults(script.Phases[pi], &flash, pi, start)
		for evIdx < len(events) && int(events[evIdx].Phase) == pi {
			ev := events[evIdx]
			evIdx++
			if wait := ev.At - time.Since(start); wait > 200*time.Microsecond {
				time.Sleep(wait)
			}
			outstanding[pi].Add(1)
			select {
			case ch <- ev:
			default:
				outstanding[pi].Add(-1)
				dropCounts[pi].Add(1)
				e.dropped.Add(1)
			}
		}
		if rem := windows[pi].End - time.Since(start); rem > 0 {
			time.Sleep(rem)
		}
		// Drain this phase's in-flight work so the boundary snapshot
		// belongs to the phase (bounded: an overloaded phase must not
		// stall the scenario).
		drainDeadline := time.Now().Add(3 * time.Second)
		for outstanding[pi].Load() > 0 && time.Now().Before(drainDeadline) {
			time.Sleep(time.Millisecond)
		}
		snaps = append(snaps, e.snapshotState(start))
	}
	close(ch)
	wg.Wait()
	stopSampler()
	if e.dur != nil {
		e.dur.SetFsyncDegraded(0) // never leave the fault armed
	}
	elapsed := time.Since(start)

	return e.buildReport(script, events, elapsed, hists, errCounts, dropCounts, execCounts,
		snaps, windows, &flash, sampler, secEvents, secErrors), nil
}

// flashState tracks the (at most one per script, by convention)
// flash-crowd injection so recovery can be attributed.
type flashState struct {
	fired         bool
	phase         int
	at            time.Duration
	rewarmsBefore int64
}

// applyFaults arms the phase's fault set at entry. Degraded fsync is
// level-triggered: each phase entry sets it to the phase's value, so a
// phase without the fault heals the disk.
func (e *Engine) applyFaults(ph Phase, flash *flashState, pi int, start time.Time) {
	if e.dur != nil {
		e.dur.SetFsyncDegraded(ph.DegradedFsync)
		if ph.DegradedFsync > 0 {
			e.opts.Logf("phase %s: fsync degraded by %v", ph.Name, ph.DegradedFsync)
		}
	}
	if ph.FlashCrowd {
		before := e.sys.PlanCache.Stats()
		// The story breaks: new content enters the candidate set. Ingest
		// epoch-invalidates when the item lands in the window; if the
		// reserve is exhausted (or the item fell outside), force the bump
		// so the phase always hits a cold cache.
		if i := e.ingestNext.Add(1) - 1; int(i) < len(e.pop.Reserved) {
			if _, err := e.sys.IngestPodcast(e.pop.Reserved[i]); err != nil {
				e.opts.Logf("phase %s: breaking ingest failed: %v", ph.Name, err)
			}
		}
		if e.sys.PlanCache.Stats().EpochInvalidations == before.EpochInvalidations {
			e.sys.PlanCache.InvalidateAll()
		}
		flash.fired = true
		flash.phase = pi
		flash.at = time.Since(start)
		flash.rewarmsBefore = before.Rewarms
		e.opts.Logf("phase %s: flash crowd — %d warm plans invalidated", ph.Name, before.Entries)
	}
}

// exec runs one scheduled event against the system.
func (e *Engine) exec(ev Event) error {
	pop := e.pop
	drv := pop.Drivers[int(ev.User)%len(pop.Drivers)]
	user := pop.Users[int(ev.User)%len(pop.Users)]
	switch ev.Op {
	case OpPlan:
		_, err := e.sys.PlanTrip(drv.User, drv.Partial, drv.PlanAt, nil)
		return err
	case OpFeedback:
		it := pop.Items[int(ev.Aux)%len(pop.Items)]
		// No Categories: the event means the catalog item's own.
		fbe := feedback.Event{
			UserID: user,
			ItemID: it.ID,
			Kind:   feedback.Kind(ev.Aux % 4),
			At:     pop.WorldEnd.Add(-time.Duration(ev.Aux%3600) * time.Second),
		}
		err := e.sys.AddFeedback(fbe)
		if err == nil && e.opts.RecordAcks {
			e.ackMu.Lock()
			e.acks = append(e.acks, fbe)
			e.ackMu.Unlock()
		}
		return err
	case OpFix:
		drv.fixMu.Lock()
		defer drv.fixMu.Unlock()
		drv.fixClock++
		return e.sys.RecordFix(drv.User, trajectory.Fix{Point: drv.fixPoint.Point, Time: time.Unix(drv.fixClock, 0).UTC()})
	case OpRecommend:
		e.sys.Recommend(user, recommend.Context{Now: pop.ReadAt}, 5)
		return nil
	case OpPrefs:
		e.sys.Preferences(user, pop.ReadAt)
		return nil
	case OpRegister:
		// Churn: a genuinely new user joins under a fresh ID.
		i := e.regNext.Add(1) - 1
		p := pop.World.Personas[int(i)%len(pop.World.Personas)].Profile
		p.UserID = fmt.Sprintf("%s-n%06d", p.UserID, i)
		return e.sys.RegisterUser(p)
	case OpIngest:
		if i := e.ingestNext.Add(1) - 1; int(i) < len(pop.Reserved) {
			_, err := e.sys.IngestPodcast(pop.Reserved[i])
			return err
		}
		e.sys.Preferences(user, pop.ReadAt) // reserve exhausted: degrade to a read
		return nil
	case OpShift:
		// Ephemeral context shift mid-trip: the cached plan no longer
		// matches reality — drop it and re-rank under the new context.
		e.sys.PlanCache.InvalidateUser(drv.User)
		ctx := recommend.Context{
			Now:      pop.ReadAt,
			Driving:  true,
			Weather:  recommend.Weather(1 + ev.Aux%4),
			Activity: recommend.Activity(1 + (ev.Aux/4)%3),
		}
		e.sys.Recommend(drv.User, ctx, 5)
		return nil
	default:
		return fmt.Errorf("scenario: unknown op %d", ev.Op)
	}
}

// readinessSampler watches the durability layer while a scenario runs:
// dead means Healthy() ≠ nil (a load balancer would eject the node),
// degraded means Degraded() ≠ nil (the node serves on, flagged). Flaps
// count alive↔dead transitions; a healthy run has zero.
type readinessSampler struct {
	dur          *pphcr.Durability
	flaps        atomic.Int64
	deadSamples  atomic.Int64
	degrSamples  atomic.Int64
	totalSamples atomic.Int64
}

func newReadinessSampler(dur *pphcr.Durability) *readinessSampler {
	return &readinessSampler{dur: dur}
}

func (r *readinessSampler) start() (stop func()) {
	if r.dur == nil {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(25 * time.Millisecond)
		defer t.Stop()
		wasDead := false
		for {
			select {
			case <-done:
				return
			case <-t.C:
				r.totalSamples.Add(1)
				dead := r.dur.Healthy() != nil
				if dead {
					r.deadSamples.Add(1)
				}
				if r.dur.Degraded() != nil {
					r.degrSamples.Add(1)
				}
				if dead != wasDead {
					r.flaps.Add(1)
					wasDead = dead
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
