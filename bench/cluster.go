package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"pphcr"
	"pphcr/internal/content"
	"pphcr/internal/durable"
	"pphcr/internal/feedback"
	"pphcr/internal/httpapi"
	"pphcr/internal/plancache"
	"pphcr/internal/precompute"
	"pphcr/internal/predict"
	"pphcr/internal/replicate"
	"pphcr/internal/scenario"
	"pphcr/internal/service"
	"pphcr/internal/synth"
	"pphcr/internal/trajectory"
)

// scale sizes the inputs. fullScale is what every reported number is
// measured at; the smoke test shrinks it so the package tests stay cheap.
type scale struct {
	Users   int // registered listeners (BuildPopulation clones personas up to this)
	Drivers int // personas prepared as drivers
	Catalog int // synthetic items added beside the world's own podcasts
	History int // feedback events seeded per driver
}

var fullScale = scale{Users: 2000, Drivers: 64, Catalog: 20000, History: 200}

// driver is one commuter the plan workloads request for.
type driver struct {
	user     string
	planBody []byte           // pre-marshalled POST /api/plan body, now_unix = T0
	fix      fixPoint         // where /api/track fixes are reported from
	ref      []string         // reference plan: item IDs in schedule order
	partial  trajectory.Trace // the 3-minute partial trace, shifted to end at t0
	cacheKey plancache.Key    // where the plan cache holds this trip's plan
}

type fixPoint struct{ lat, lon float64 }

// cluster is the system under test: one partition's leader and warm
// standby behind the router, every listener on loopback, every
// component at its constructor defaults.
type cluster struct {
	world *synth.World
	cfg   pphcr.Config
	pop   *scenario.Population

	leader   *pphcr.System
	dur      *pphcr.Durability
	follower *pphcr.System
	standby  *replicate.Standby
	warmer   *service.Warmer
	api      http.Handler // the leader's httpapi handler, unwrapped

	routerURL string
	leaderDir string
	workDir   string

	// t0 is the one planning instant of the run (see README: warm entries
	// are only servable within PlanTTL of the request instant).
	t0      time.Time
	drivers []*driver
	users   []string

	phases map[string]float64 // set-up phase → seconds
	tr     *tracer            // nil on untraced runs

	stops []func() // run in reverse by close
}

func (c *cluster) onClose(fn func()) { c.stops = append(c.stops, fn) }

// close stops every goroutine and listener the cluster started, waits
// for them, and removes the data directories.
func (c *cluster) close() {
	for i := len(c.stops) - 1; i >= 0; i-- {
		c.stops[i]()
	}
	c.stops = nil
}

// setupOptions selects the parts of the cluster only some passes need.
type setupOptions struct {
	warmer bool    // bind, prewarm and run service.Warmer on the leader
	tracer *tracer // wrap the mounted handlers with span recording
	tmp    string  // parent of the data directories
}

// newSystem builds one node's System and preloads it: the population,
// the synthetic catalog and every driver's feedback history. Both nodes
// run this with the same seed before the WAL is opened, so they start
// bit-identical — the way every pphcr-server node loads the same-seed
// catalog at boot — and set-up does not pay an fsync per preloaded event,
// which on a shared disk is the least repeatable cost there is.
func newSystem(cfg pphcr.Config, w *synth.World, sc scale, seed int64) (*pphcr.System, *scenario.Population, map[string]float64, error) {
	phases := map[string]float64{}
	sys, err := pphcr.New(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	start := time.Now()
	pop, err := scenario.BuildPopulation(sys, w, sc.Users, sc.Drivers, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	phases["population"] = time.Since(start).Seconds()
	start = time.Now()
	t0 := planInstant(pop)
	if err := addCatalog(sys, seed, sc.Catalog, t0); err != nil {
		return nil, nil, nil, err
	}
	phases["catalog"] = time.Since(start).Seconds()
	start = time.Now()
	if err := seedHistory(sys, pop, seed, sc.History, t0); err != nil {
		return nil, nil, nil, err
	}
	phases["history"] = time.Since(start).Seconds()
	return sys, pop, phases, nil
}

// planInstant is 08:00 on the day BuildPopulation cut the drivers'
// partial traces from: the first weekday after the world's content ends.
func planInstant(pop *scenario.Population) time.Time {
	d := pop.Drivers[0].PlanAt
	return time.Date(d.Year(), d.Month(), d.Day(), 8, 0, 0, 0, time.UTC)
}

// addCatalog adds n synthetic clips straight to the repository, in the
// shape of the retrieval tests' builder: 2–4 weighted categories each,
// published inside the 4 h before base so freshness is near uniform and
// the whole catalog sits in every candidate window.
func addCatalog(sys *pphcr.System, seed int64, n int, base time.Time) error {
	rng := rand.New(rand.NewSource(seed))
	span := 4 * time.Hour
	for i := 0; i < n; i++ {
		nc := 2 + rng.Intn(3)
		cats := make(map[string]float64, nc)
		total := 0.0
		for len(cats) < nc {
			cat := content.Categories[rng.Intn(len(content.Categories))]
			if _, dup := cats[cat]; dup {
				continue
			}
			w := 0.2 + rng.Float64()
			cats[cat] = w
			total += w
		}
		for cat := range cats {
			cats[cat] /= total
		}
		it := &content.Item{
			ID:          fmt.Sprintf("cat-%06d", i),
			Title:       fmt.Sprintf("bench item %d", i),
			Program:     "bench",
			Kind:        content.KindClip,
			Duration:    4 * time.Minute,
			Published:   base.Add(-span + time.Duration(int64(i)*int64(span)/int64(n))),
			Categories:  cats,
			BitrateKbps: 96,
		}
		if err := sys.Repo.Add(it); err != nil {
			return err
		}
	}
	return nil
}

// worldSeed fixes the city, its commuters and the podcast corpus: they
// are the benchmark's dataset, like the sizes beside them. --seed varies
// what is done to that dataset — the catalog, each driver's feedback
// history and every client's request sequence. The share of re-plans a
// warm entry can serve is a property of the city's trip lengths (0.12 to
// 0.69 over ten world seeds), so a seeded world would make skip_replan's
// numbers a function of the seed and not of the code.
const worldSeed = 1

// setUp boots the cluster from seed. The phases it times are reported as
// setup.* layer metrics; the whole of it is setup_s.
func setUp(seed int64, sc scale, o setupOptions) (c *cluster, err error) {
	c = &cluster{tr: o.tracer, phases: map[string]float64{}}
	defer func() {
		if err != nil {
			c.close()
		}
	}()

	start := time.Now()
	c.world, err = synth.GenerateWorld(synth.Params{
		Seed: worldSeed, Days: 3, Users: sc.Drivers, Stations: 4,
		PodcastsPerDay: 30, TrainingDocsPerCategory: 8,
	})
	if err != nil {
		return c, err
	}
	c.phases["world"] = time.Since(start).Seconds()
	c.cfg = pphcr.Config{TrainingDocs: c.world.Training, Vocabulary: c.world.FlatVocab, Seed: worldSeed}

	// Both nodes preload in parallel; the phase times are the leader's.
	var (
		wg       sync.WaitGroup
		folErr   error
		leaderPh map[string]float64
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.follower, _, _, folErr = newSystem(c.cfg, c.world, sc, seed)
	}()
	c.leader, c.pop, leaderPh, err = newSystem(c.cfg, c.world, sc, seed)
	wg.Wait()
	if err != nil {
		return c, err
	}
	if folErr != nil {
		return c, folErr
	}
	for k, v := range leaderPh {
		c.phases[k] = v
	}
	c.t0 = planInstant(c.pop)
	c.users = c.pop.Users

	start = time.Now()
	if err := c.wire(o); err != nil {
		return c, err
	}
	c.phases["cluster"] = time.Since(start).Seconds()

	// The follower's first polls: nothing to ship yet, but the standby
	// must be tailing before the first acked write waits on it.
	start = time.Now()
	if err := c.waitCaughtUp(60 * time.Second); err != nil {
		return c, err
	}
	c.phases["catchup"] = time.Since(start).Seconds()

	start = time.Now()
	if err := c.referencePlans(); err != nil {
		return c, err
	}
	if o.warmer {
		// The warmer exists only where a workload needs it: its broker
		// queues are bound at construction and grow without a consumer.
		t0 := c.t0
		c.warmer, err = service.NewWarmer(c.leader, precompute.Config{Now: func() time.Time { return t0 }})
		if err != nil {
			return c, err
		}
		c.warmer.Prewarm(c.leader, c.t0)
		stop, done := make(chan struct{}), make(chan struct{})
		go func() { defer close(done); c.warmer.Run(stop) }()
		c.onClose(func() { close(stop); <-done })
	}
	c.phases["prewarm"] = time.Since(start).Seconds()
	return c, nil
}

// wire opens the leader's WAL and mounts the three HTTP surfaces the way
// scenario.RunKillNode and cmd/pphcr-server do.
func (c *cluster) wire(o setupOptions) error {
	var err error
	if c.workDir, err = os.MkdirTemp(o.tmp, "pphcr-bench-"); err != nil {
		return err
	}
	c.onClose(func() { os.RemoveAll(c.workDir) })
	c.leaderDir = filepath.Join(c.workDir, "leader")
	followerDir := filepath.Join(c.workDir, "follower")
	for _, d := range []string{c.leaderDir, followerDir} {
		if err := os.Mkdir(d, 0o755); err != nil {
			return err
		}
	}

	c.dur, err = pphcr.OpenDurability(c.leader, pphcr.DurabilityOptions{
		Dir: c.leaderDir, Sync: durable.SyncAlways, RetainSegments: true,
	})
	if err != nil {
		return err
	}
	// Crash, not Close: the directory is deleted next, so the final
	// checkpoint Close writes would only be tear-down time.
	c.onClose(c.dur.Crash)

	leaderAPI := httpapi.NewServer(c.leader)
	leaderAPI.SetReady(true)
	leaderAPI.SetWALSeq(c.dur.WALSeq)
	leaderAPI.SetDurabilityStats(func() interface{} { return c.dur.Stats() })
	c.api = leaderAPI.Handler()
	leaderMux := http.NewServeMux()
	leaderMux.Handle("/", c.tr.wrap(spanHTTPAPI, c.api))
	replicate.NewSource(c.leaderDir, c.dur.SyncWAL, c.dur.WALSeq).Mount(leaderMux, "/replication")
	leaderSrv := httptest.NewServer(leaderMux)
	c.onClose(leaderSrv.Close)

	c.standby, err = replicate.NewStandby(c.follower, followerDir, leaderSrv.URL, "/replication")
	if err != nil {
		return err
	}
	tailStop, tailDone := make(chan struct{}), make(chan struct{})
	go func() { defer close(tailDone); c.standby.Run(tailStop) }()
	c.onClose(func() { close(tailStop); <-tailDone })

	followerAPI := httpapi.NewServer(c.follower)
	followerAPI.SetReady(true)
	followerAPI.SetRole(httpapi.RoleFollower)
	followerAPI.SetReplicationLag(c.standby.LagSeconds)
	followerAPI.SetReadinessCheck(c.standby.Err)
	followerMux := http.NewServeMux()
	followerMux.Handle("/", followerAPI.Handler())
	followerMux.Handle("GET /replication/wait", c.tr.wrap(spanAckWait, http.HandlerFunc(c.handleWait)))
	followerMux.HandleFunc("GET /replication/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(c.standby.Stats())
	})
	followerSrv := httptest.NewServer(followerMux)
	c.onClose(followerSrv.Close)

	router := replicate.NewRouter(&replicate.Topology{Version: 1, Nodes: []replicate.Node{
		{ID: "a", URL: leaderSrv.URL, Standby: followerSrv.URL},
	}})
	routerStop, routerDone := make(chan struct{}), make(chan struct{})
	go func() { defer close(routerDone); router.Run(routerStop) }()
	c.onClose(func() { close(routerStop); <-routerDone })
	front := httptest.NewServer(c.tr.wrap(spanRouter, router.Handler()))
	c.onClose(front.Close)
	c.routerURL = front.URL
	return nil
}

// handleWait is the follower's ack-barrier endpoint, as cmd/pphcr-server
// serves it.
func (c *cluster) handleWait(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	seq, err := strconv.ParseUint(q.Get("seq"), 10, 64)
	if err != nil {
		http.Error(w, `{"error":"seq must be an unsigned integer"}`, http.StatusBadRequest)
		return
	}
	timeout := 5 * time.Second
	if ms, err := strconv.ParseInt(q.Get("timeout_ms"), 10, 64); err == nil && ms > 0 {
		timeout = time.Duration(ms) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	if err := c.standby.WaitApplied(ctx, seq); err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusGatewayTimeout)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"applied":%d}`+"\n", c.standby.AppliedSeq())
}

// historyStart is how far before t0 the seeded feedback begins. Run-time
// feedback is stamped after it and before t0, so every preference read at
// t0 stays on the incremental index.
const historyStart = 4 * time.Hour

// seedHistory gives every prepared driver n like events, so cold plans
// run in the flat regime of the feedback-history cost curve.
func seedHistory(sys *pphcr.System, pop *scenario.Population, seed int64, n int, t0 time.Time) error {
	items := sys.Repo.All()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for _, d := range pop.Drivers {
		for i := 0; i < n; i++ {
			it := items[rng.Intn(len(items))]
			err := sys.AddFeedback(feedback.Event{
				UserID: d.User, ItemID: it.ID, Kind: feedback.Like,
				At:         t0.Add(-historyStart + time.Duration(i)*time.Second),
				Categories: it.Categories,
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// waitCaughtUp blocks until the follower has applied the leader's whole
// log.
func (c *cluster) waitCaughtUp(timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := c.standby.WaitApplied(ctx, c.dur.WALSeq()); err != nil {
		return fmt.Errorf("follower catch-up: %w", err)
	}
	return nil
}

// referencePlans shifts every prepared driver's partial trace to end at
// t0, plans it once on the leader (which also leaves the plan cached) and
// keeps the drivers whose plan is proactive with at least one item.
func (c *cluster) referencePlans() error {
	cands := make([]*driver, len(c.pop.Drivers))
	errs := make([]error, len(c.pop.Drivers))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				cands[i], errs[i] = c.referencePlan(c.pop.Drivers[i])
			}
		}()
	}
	for i := range c.pop.Drivers {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, d := range cands {
		if errs[i] != nil {
			return errs[i]
		}
		if d != nil {
			c.drivers = append(c.drivers, d)
		}
	}
	if len(c.drivers) == 0 {
		return fmt.Errorf("no driver has a proactive reference plan")
	}
	return nil
}

func (c *cluster) referencePlan(sd *scenario.Driver) (*driver, error) {
	shift := c.t0.Sub(sd.PlanAt)
	partial := make(trajectory.Trace, len(sd.Partial))
	body := httpapi.PlanRequest{UserID: sd.User, NowUnix: c.t0.Unix()}
	for i, f := range sd.Partial {
		f.Time = f.Time.Add(shift)
		partial[i] = f
		body.Fixes = append(body.Fixes, httpapi.TrackBody{Lat: f.Point.Lat, Lon: f.Point.Lon, Unix: f.Time.Unix()})
	}
	tp, err := c.leader.PlanTrip(sd.User, partial, c.t0, nil)
	if err != nil {
		return nil, fmt.Errorf("reference plan for %s: %w", sd.User, err)
	}
	if !tp.Proactive || len(tp.Plan.Items) == 0 {
		return nil, nil
	}
	d := &driver{
		user:     sd.User,
		partial:  partial,
		fix:      fixPoint{lat: partial[len(partial)-1].Point.Lat, lon: partial[len(partial)-1].Point.Lon},
		cacheKey: plancache.Key{User: sd.User, Dest: tp.Prediction.Dest, Bucket: predict.BucketOf(c.t0)},
	}
	for _, it := range tp.Plan.Items {
		d.ref = append(d.ref, it.Scored.Item.ID)
	}
	if d.planBody, err = json.Marshal(body); err != nil {
		return nil, err
	}
	return d, nil
}
