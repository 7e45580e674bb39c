package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"pphcr"
	"pphcr/internal/durable"
	"pphcr/internal/feedback"
	"pphcr/internal/obs"
	"pphcr/internal/pipeline"
	"pphcr/internal/plancache"
	"pphcr/internal/trajectory"
)

// The probes in this file time one layer's public functions directly,
// with the workload's own inputs, after the HTTP windows are over. Each
// writes its medians into m under the layer's name.

// timeEach runs fn n times and returns each call's duration in the given
// unit (time.Microsecond for µs, …).
func timeEach(n int, unit time.Duration, fn func(i int)) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		fn(i)
		out[i] = float64(time.Since(start)) / float64(unit)
	}
	return out
}

// stageSnapshots reads the five pipeline stage histograms.
func stageSnapshots(sys *pphcr.System) [pipeline.NumStages]obs.Snapshot {
	var s [pipeline.NumStages]obs.Snapshot
	for i := range s {
		s[i] = sys.Pipeline().StageHistogram(i).Snapshot()
	}
	return s
}

// probeSystem times direct plan calls on the leader, warm then cold, and
// reads the pipeline's own stage histograms over the cold pass.
func probeSystem(c *cluster, m map[string]float64, coldCalls int) error {
	var err error
	plan := func(i int) {
		d := c.drivers[i%len(c.drivers)]
		if _, e := c.leader.PlanTrip(d.user, d.partial, c.t0, nil); e != nil {
			err = e
		}
	}
	// One cold call per driver first, so every warm call below hits.
	for i := range c.drivers {
		plan(i)
	}
	m["system.plan_warm_p50_us"] = median(timeEach(2000, time.Microsecond, plan))
	// The codec share of the leader's handler: the same warm plan through
	// the handler in-process, less the direct call underneath. Taken here
	// and not from the spans because on a cold plan or a write the codec is
	// a thousandth of the span and a difference of two medians loses it.
	viaHandler := median(timeEach(2000, time.Microsecond, func(i int) {
		d := c.drivers[i%len(c.drivers)]
		req := httptest.NewRequest(http.MethodPost, "/api/plan", bytes.NewReader(d.planBody))
		c.api.ServeHTTP(httptest.NewRecorder(), req)
	}))
	m["httpapi.codec_p50_us"] = viaHandler - m["system.plan_warm_p50_us"]

	before := stageSnapshots(c.leader)
	m["system.plan_cold_p50_ms"] = median(timeEach(coldCalls, time.Millisecond, func(i int) {
		c.leader.PlanCache.InvalidateUser(c.drivers[i%len(c.drivers)].user)
		plan(i)
	}))
	after := stageSnapshots(c.leader)
	for i, name := range pipeline.StageNames {
		m["pipeline."+name+"_p50_us"] = float64(after[i].Delta(before[i]).Quantile(0.5)) / 1e3
	}

	m["feedback.preferences_p50_us"] = median(timeEach(2000, time.Microsecond, func(i int) {
		c.leader.Preferences(c.drivers[i%len(c.drivers)].user, c.t0)
	}))
	return err
}

// probeStores times the feedback store and the plan cache on instances of
// their own, so the numbers are the data structures' and nothing else's.
func probeStores(c *cluster, m map[string]float64) {
	items := c.leader.Repo.All()
	store := feedback.NewStore()
	m["feedback.append_p50_ns"] = median(timeEach(5000, time.Nanosecond, func(i int) {
		it := items[i%len(items)]
		store.Append(feedback.Event{
			UserID: c.users[i%len(c.users)], ItemID: it.ID, Kind: feedback.Like,
			At: c.t0.Add(time.Duration(i) * time.Second), Categories: it.Categories,
		})
	}))

	cache := plancache.New(plancache.Config{})
	key := func(i int) plancache.Key {
		return plancache.Key{User: c.users[i%len(c.users)], Dest: 1}
	}
	value := struct{}{}
	m["plancache.put_p50_ns"] = median(timeEach(5000, time.Nanosecond, func(i int) { cache.Put(key(i), value) }))
	m["plancache.get_p50_ns"] = median(timeEach(5000, time.Nanosecond, func(i int) { cache.Get(key(i)) }))
	m["plancache.invalidate_user_p50_ns"] = median(timeEach(2000, time.Nanosecond, func(i int) {
		cache.InvalidateUser(key(i).User)
	}))
}

// probeScratch times the write entry points, tracking compaction and
// content ingest on a System with no WAL attached, so the durability
// layer's share is read from its own counters instead.
func probeScratch(c *cluster, m map[string]float64) error {
	sys, err := pphcr.New(c.cfg)
	if err != nil {
		return err
	}
	p := c.world.Personas[0]
	user := p.Profile.UserID
	if err := sys.RegisterUser(p.Profile); err != nil {
		return err
	}
	// Each commute is recorded fix by fix, then compacted: compaction
	// consumes the fixes, so every timed call has a trip's worth to fold.
	var record, compact []float64
	for day := 0; day < 2; day++ {
		for _, morning := range []bool{true, false} {
			var fixes trajectory.Trace
			fixes, _, err = c.world.CommuteTrace(p, c.world.Params.StartDate.AddDate(0, 0, day), morning)
			if err != nil {
				return err
			}
			record = append(record, timeEach(len(fixes), time.Microsecond, func(i int) {
				if e := sys.RecordFix(user, fixes[i]); e != nil {
					err = e
				}
			})...)
			compact = append(compact, timeEach(1, time.Millisecond, func(int) {
				if _, e := sys.CompactTracking(user); e != nil {
					err = e
				}
			})...)
		}
	}
	m["system.record_fix_p50_us"] = median(record)
	m["tracking.compact_p50_ms"] = median(compact)
	items := c.leader.Repo.All()
	m["system.add_feedback_p50_us"] = median(timeEach(2000, time.Microsecond, func(i int) {
		it := items[i%len(items)]
		if e := sys.AddFeedback(feedback.Event{
			UserID: user, ItemID: it.ID, Kind: feedback.Like,
			At: c.t0.Add(time.Duration(i) * time.Second), Categories: it.Categories,
		}); e != nil {
			err = e
		}
	}))
	n := len(c.pop.Reserved)
	if n > 5 {
		n = 5
	}
	m["content.ingest_p50_ms"] = median(timeEach(n, time.Millisecond, func(i int) {
		if _, e := sys.IngestPodcast(c.pop.Reserved[i]); e != nil {
			err = e
		}
	}))
	return err
}

// probeRecovery copies the leader's data directory and opens it into a
// fresh System: events replayed per second of OpenDurability.
func probeRecovery(c *cluster, m map[string]float64) error {
	if err := c.dur.SyncWAL(); err != nil {
		return err
	}
	dir := filepath.Join(c.workDir, "recovery")
	if err := os.CopyFS(dir, os.DirFS(c.leaderDir)); err != nil {
		return err
	}
	sys, err := pphcr.New(c.cfg)
	if err != nil {
		return err
	}
	start := time.Now()
	dur, err := pphcr.OpenDurability(sys, pphcr.DurabilityOptions{Dir: dir, Sync: durable.SyncAlways, RetainSegments: true})
	if err != nil {
		return fmt.Errorf("recovery probe: %w", err)
	}
	elapsed := time.Since(start).Seconds()
	m["durable.recovery_events_per_s"] = float64(dur.ReplayedEvents()) / elapsed
	dur.Crash()
	return nil
}

// pollUntil spins on cond every 50 µs and returns how long it took to
// hold, or false after timeout.
func pollUntil(timeout time.Duration, cond func() bool) (time.Duration, bool) {
	start := time.Now()
	for !cond() {
		if time.Since(start) > timeout {
			return 0, false
		}
		time.Sleep(50 * time.Microsecond)
	}
	return time.Since(start), true
}

// probePrecompute times the event → warm-plan-servable path the running
// warmer provides: after one listener's dislike, after a breaking item
// invalidates every plan at once, and the batch call underneath both.
func probePrecompute(c *cluster, m map[string]float64) error {
	var rewarm []float64
	for i := 0; i < 10 && i < len(c.drivers); i++ {
		d := c.drivers[i]
		err := c.leader.AddFeedback(feedback.Event{
			UserID: d.user, ItemID: fmt.Sprintf("bench-rewarm-%d", i), Kind: feedback.Dislike,
			At: c.t0.Add(-time.Second),
		})
		if err != nil {
			return err
		}
		if took, ok := pollUntil(2*time.Second, func() bool { return c.leader.PlanCache.Contains(d.cacheKey) }); ok {
			rewarm = append(rewarm, float64(took)/1e6)
		}
	}
	m["precompute.rewarm_p50_ms"] = median(rewarm)

	var reqs []pphcr.WarmRequest
	for _, d := range c.drivers {
		cm, ok := c.leader.MobilityModel(d.user)
		if !ok {
			continue
		}
		for _, from := range cm.Mobility.Origins() {
			if cands := cm.Mobility.PredictDestination(from, c.t0); len(cands) > 0 && len(reqs) < 16 {
				reqs = append(reqs, pphcr.WarmRequest{UserID: d.user, From: from, Dest: cands[0].Place, Prob: cands[0].Prob, At: c.t0})
			}
		}
	}
	if len(reqs) > 0 {
		m["precompute.warm_batch_ms_per_plan"] = median(timeEach(5, time.Millisecond, func(int) {
			c.leader.WarmBatch(reqs)
		})) / float64(len(reqs))
	}

	if len(c.pop.Reserved) > 0 {
		start := time.Now()
		if _, err := c.leader.IngestPodcast(c.pop.Reserved[0]); err != nil {
			return err
		}
		_, ok := pollUntil(20*time.Second, func() bool {
			for _, d := range c.drivers {
				if !c.leader.PlanCache.Contains(d.cacheKey) {
					return false
				}
			}
			return true
		})
		if ok {
			m["precompute.flash_rewarm_ms"] = float64(time.Since(start)) / 1e6
		}
	}
	m["precompute.jobs_dropped"] = float64(c.warmer.Stats().JobsDropped)
	return nil
}
