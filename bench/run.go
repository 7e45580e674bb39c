package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"time"
)

// runConfig is one invocation: a workload, a seed and how long to
// measure. The fields below the line are fixed for reported runs and
// shrunk by the smoke test.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	tmp      string
	log      io.Writer

	sc        scale
	clients   int           // closed-loop clients and connections
	coldCalls int           // direct cold plans the traced pass times
	setups    int           // set-ups per untraced run; setup_s is their median
	window    time.Duration // length of one measurement window of an untraced run
	warmup    time.Duration // discarded window before the first measured one
}

// defaultClients is min(nproc, 4): the generator shares the box with the
// cluster, so more clients than cores would measure the scheduler.
func defaultClients() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// environment stamps a result with where it came from.
type environment struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func readEnvironment() environment {
	env := environment{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPU: "unknown", Commit: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	// The benchmark also runs from exported trees that are not git
	// checkouts; the commit is then unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// result is one run, as written to -out (one JSON object per line).
type result struct {
	Workload     string                 `json:"workload"`
	Seed         int64                  `json:"seed"`
	Trace        bool                   `json:"trace"`
	Clients      int                    `json:"clients"`
	Env          environment            `json:"env"`
	SequenceHash string                 `json:"sequence_hash"`
	Correct      bool                   `json:"correct"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	FirstFailure string                 `json:"first_failure,omitempty"`
	Metrics      map[string]metricValue `json:"metrics"`
	SetupSeconds []float64              `json:"setup_seconds,omitempty"`
	Windows      []windowStats          `json:"windows"`
}

// line is the contract's result line: the last line of standard output.
func (r *result) line() string {
	data, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	return string(data)
}

func (r *result) count(ws windowStats) {
	r.Attempted += ws.Attempted
	r.Failed += ws.Failed
}

func (r *result) noteFailure(lanes []*lane) {
	for _, l := range lanes {
		if r.FirstFailure == "" {
			r.FirstFailure = l.firstFailure
		}
	}
}

func (cfg runConfig) logf(format string, args ...interface{}) {
	fmt.Fprintf(cfg.log, format+"\n", args...)
}

// run executes one workload, untraced or traced, checks its outputs and
// returns every metric of that mode.
func run(cfg runConfig) (*result, error) {
	if _, ok := findWorkload(cfg.workload); !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	res := &result{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Env: readEnvironment()}
	var err error
	if cfg.trace {
		err = runTraced(cfg, res)
	} else {
		err = runUntraced(cfg, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

func logPhases(cfg runConfig, c *cluster, took float64) {
	cfg.logf("set-up %.3f s: world %.3f population %.3f catalog %.3f history %.3f cluster %.3f catchup %.3f prewarm %.3f; %d of %d drivers kept, t0 %s",
		took, c.phases["world"], c.phases["population"], c.phases["catalog"], c.phases["history"], c.phases["cluster"],
		c.phases["catchup"], c.phases["prewarm"], len(c.drivers), len(c.pop.Drivers), c.t0.Format(time.RFC3339))
}

func runUntraced(cfg runConfig, res *result) error {
	var c *cluster
	for i := 0; i < cfg.setups; i++ {
		if c != nil {
			c.close()
		}
		start := time.Now()
		var err error
		c, err = setUp(cfg.seed, cfg.sc, setupOptions{warmer: cfg.workload == wlSkipReplan, tmp: cfg.tmp})
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(start).Seconds()
		res.SetupSeconds = append(res.SetupSeconds, took)
		logPhases(cfg, c, took)
	}
	defer c.close()

	res.Clients = cfg.clients
	res.SequenceHash = fmt.Sprintf("%016x", sequenceHash(cfg.workload, cfg.seed, cfg.clients, c))
	cfg.logf("workload %s seed %d: %d closed-loop clients, request-sequence hash %s", cfg.workload, cfg.seed, cfg.clients, res.SequenceHash)

	lanes, closeConns := newLanes(c, cfg.workload, cfg.seed, cfg.clients)
	defer closeConns()
	res.count(runWindow(lanes, cfg.warmup))
	windows := max(1, int(cfg.seconds/cfg.window.Seconds()))
	for i := 0; i < windows; i++ {
		ws := runWindow(lanes, cfg.window)
		res.Windows = append(res.Windows, ws)
		res.count(ws)
		cfg.logf("window %d: %5d ops in %.2f s  p50 %.4f ms  p90 %.4f ms  %.1f ops/s  failed %d",
			i+1, ws.Ops, ws.Seconds, ws.OpP50, ws.OpP90, ws.OpsPerSec, ws.Failed)
	}
	res.noteFailure(lanes)
	if err := checkReplicated(c, lanes, res); err != nil {
		return err
	}
	checkFreshReplans(c, lanes, res)

	// Twice: the first collection only moves sync.Pool contents to the
	// victim cache, the second frees them, so pooled buffers do not make
	// the reading depend on when the last background cycle ran.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p90, rate := bestWindow(res.Windows)
	res.Metrics = collect(endToEnd, map[string]float64{
		"setup_s":      median(res.SetupSeconds),
		"op_p90_ms":    p90,
		"ops_per_s":    rate,
		"live_heap_mb": float64(ms.HeapAlloc) / (1 << 20),
	})
	return nil
}

// bestWindow is the lowest p90 and the highest throughput any one window
// reached. The box is a small VM on a shared host, and what its
// neighbours do to the shared cache and memory bus moves every CPU-bound
// number between three or so speed levels 1.6x apart, for seconds at a
// time, with no steal time reported; a register-only loop does not move.
// That noise has one sign — a neighbour never makes a window faster — so
// the best window is the reading least touched by it: over ten seeds the
// median window of warm_plan spread 15 % and the best 1 s window 6 %.
// A regression in the program slows every window, the best one too.
func bestWindow(windows []windowStats) (p90, rate float64) {
	for _, w := range windows {
		if w.Ops == 0 { // stalled through the whole window: it has no p90
			continue
		}
		if p90 == 0 || w.OpP90 < p90 {
			p90 = w.OpP90
		}
		rate = max(rate, w.OpsPerSec)
	}
	return p90, rate
}

// checkReplicated is the acked-write oracle, run after the last window:
// every feedback write the router answered 2xx must be in the leader's
// event dump and in the follower's store, and the follower must reach
// the leader's sequence.
func checkReplicated(c *cluster, lanes []*lane, res *result) error {
	if err := c.waitCaughtUp(10 * time.Second); err != nil {
		res.Failed++
		res.FirstFailure = err.Error()
		return nil
	}
	byUser := map[string]map[ack]int{}
	for _, l := range lanes {
		for _, a := range l.acked {
			if byUser[a.user] == nil {
				byUser[a.user] = map[ack]int{}
			}
			byUser[a.user][a]++
		}
	}
	for user, want := range byUser {
		resp, err := http.Get(c.routerURL + "/api/feedback/events?user=" + user)
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		var events []struct {
			UserID string `json:"user_id"`
			ItemID string `json:"item_id"`
			Unix   int64  `json:"unix"`
		}
		err = json.NewDecoder(resp.Body).Decode(&events)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("oracle: decoding %s's events: %w", user, err)
		}
		onLeader, onFollower := map[ack]int{}, map[ack]int{}
		for _, e := range events {
			onLeader[ack{e.UserID, e.ItemID, e.Unix}]++
		}
		for _, e := range c.follower.Feedback.ByUser(user) {
			onFollower[ack{e.UserID, e.ItemID, e.At.Unix()}]++
		}
		for a, n := range want {
			if onLeader[a] < n || onFollower[a] < n {
				res.Failed++
				if res.FirstFailure == "" {
					res.FirstFailure = fmt.Sprintf("acked write %v: leader has %d, follower %d, want %d", a, onLeader[a], onFollower[a], n)
				}
			}
		}
	}
	return nil
}

// tracedPairs is how many (untraced, traced) window pairs the traced pass
// splits --seconds into.
const tracedPairs = 3

func runTraced(cfg runConfig, res *result) error {
	tr := newTracer()
	start := time.Now()
	c, err := setUp(cfg.seed, cfg.sc, setupOptions{warmer: cfg.workload == wlSkipReplan, tracer: tr, tmp: cfg.tmp})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer c.close()
	logPhases(cfg, c, time.Since(start).Seconds())

	// One client, so requests do not overlap: spans nest by time and the
	// layers' self times add up to the client's.
	res.Clients = 1
	res.SequenceHash = fmt.Sprintf("%016x", sequenceHash(cfg.workload, cfg.seed, 1, c))
	lanes, closeConns := newLanes(c, cfg.workload, cfg.seed, 1)
	defer closeConns()
	res.count(runWindow(lanes, cfg.warmup))

	// Untraced and traced windows alternate, so a drift in the machine's
	// speed falls on both sides of trace.overhead_pct alike. The layers'
	// own counters do not depend on recording and are read over all of it.
	window := time.Duration(cfg.seconds / (2 * tracedPairs) * float64(time.Second))
	cacheBefore := c.leader.PlanCache.Stats()
	walBefore := c.dur.Stats().WAL
	appendBefore, fsyncBefore := c.dur.WALAppendHistogram().Snapshot(), c.dur.WALFsyncHistogram().Snapshot()
	var untraced, traced []windowStats
	for i := 0; i < tracedPairs; i++ {
		untraced = append(untraced, runWindow(lanes, window))
		tr.enable(true)
		traced = append(traced, runWindow(lanes, window))
		tr.enable(false)
	}
	cacheAfter := c.leader.PlanCache.Stats()
	walAfter := c.dur.Stats().WAL
	res.Windows = append(untraced, traced...)
	for _, ws := range res.Windows {
		res.count(ws)
	}
	res.noteFailure(lanes)

	m := map[string]float64{}
	for k, v := range c.phases {
		m["setup."+k+"_s"] = v
	}
	if lookups := (cacheAfter.Hits - cacheBefore.Hits) + (cacheAfter.Misses - cacheBefore.Misses); lookups > 0 {
		m["plancache.hit_share"] = float64(cacheAfter.Hits-cacheBefore.Hits) / float64(lookups)
	}
	m["durable.append_p50_us"] = float64(c.dur.WALAppendHistogram().Snapshot().Delta(appendBefore).Quantile(0.5)) / 1e3
	m["durable.fsync_p50_us"] = float64(c.dur.WALFsyncHistogram().Snapshot().Delta(fsyncBefore).Quantile(0.5)) / 1e3
	if commits := walAfter.GroupCommits - walBefore.GroupCommits; commits > 0 {
		m["durable.mean_commit_batch"] = float64(walAfter.GroupCommitRecords-walBefore.GroupCommitRecords) / float64(commits)
	}
	m["durable.emit_errors"] = float64(c.dur.Stats().EmitErrors)
	var replans, warm, dropped int
	for _, ws := range res.Windows {
		replans, warm, dropped = replans+ws.Replans, warm+ws.Warm, dropped+ws.Dropped
	}
	if replans > 0 {
		m["precompute.warm_served_share"] = float64(warm) / float64(replans)
		m["feedback.disliked_dropped_share"] = float64(dropped) / float64(replans)
	}
	over := func(ws []windowStats, f func(windowStats) float64) float64 { return median(column(ws, f)) }
	opP50 := func(w windowStats) float64 { return w.OpP50 }
	if base := over(untraced, opP50); base > 0 {
		m["trace.overhead_pct"] = (over(traced, opP50) - base) / base * 100
	}
	m["client.plan_p50_ms"] = over(traced, func(w windowStats) float64 { return w.PlanP50 })
	m["client.plan_p99_ms"] = over(traced, func(w windowStats) float64 { return w.PlanP99 })
	m["client.acked_write_p50_ms"] = over(traced, func(w windowStats) float64 { return w.WriteP50 })
	m["client.acked_write_p99_ms"] = over(traced, func(w windowStats) float64 { return w.WriteP99 })
	if cfg.workload == wlSkipReplan {
		m["client.skip_replan_p50_ms"] = over(traced, opP50)
	}

	spans := tr.link()
	rows := perRequest(spans)
	layerTimes(cfg.workload, rows, m)
	tr.mu.Lock()
	m["router.non2xx"] = float64(tr.non2xx[spanRouter])
	m["httpapi.non2xx"] = float64(tr.non2xx[spanHTTPAPI])
	m["replicate.ack_timeouts"] = float64(tr.non2xx[spanAckWait])
	tr.mu.Unlock()
	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, spans); err != nil {
			return err
		}
		cfg.logf("%d spans of %d requests written to %s", len(spans), len(rows), cfg.traceOut)
	}

	if err := checkReplicated(c, lanes, res); err != nil {
		return err
	}
	checkFreshReplans(c, lanes, res)
	if err := probeSystem(c, m, cfg.coldCalls); err != nil {
		return fmt.Errorf("system probe: %w", err)
	}
	probeStores(c, m)
	if err := probeScratch(c, m); err != nil {
		return fmt.Errorf("write-path probe: %w", err)
	}
	if err := probeRecovery(c, m); err != nil {
		return err
	}
	if c.warmer != nil {
		if err := probePrecompute(c, m); err != nil {
			return fmt.Errorf("precompute probe: %w", err)
		}
	}
	res.Metrics = collect(perLayer, m)
	if err := c.waitCaughtUp(10 * time.Second); err != nil {
		return err
	}
	return nil
}

// checkFreshReplans proves the re-plans saw the dislikes before them. A
// dislike does not promise its item leaves the plan (only the skip entry
// points filter skipped items), but it does promise the next cold plan is
// computed from the state that includes it. Nothing has written to a
// driver since its last session, so a last re-plan served cold must equal
// the cold plan the follower — which holds every acked write — computes
// for the same request now.
func checkFreshReplans(c *cluster, lanes []*lane, res *result) {
	for _, l := range lanes {
		for di, held := range l.current {
			if held.served != "cold" {
				continue
			}
			d := c.drivers[di]
			tp, err := c.follower.PlanTrip(d.user, d.partial, c.t0, nil)
			if err != nil {
				res.Failed++
				res.FirstFailure = fmt.Sprintf("fresh re-plan check for %s: %v", d.user, err)
				continue
			}
			var want []string
			for _, it := range tp.Plan.Items {
				want = append(want, it.Scored.Item.ID)
			}
			if !slices.Equal(held.ids, want) {
				res.Failed++
				if res.FirstFailure == "" {
					res.FirstFailure = fmt.Sprintf("re-plan for %s was %v; the state after its dislike plans %v", d.user, held.ids, want)
				}
			}
		}
	}
}

// layerTimes turns per-request rows into the client, router, httpapi and
// replicate layer medians. The httpapi and router rows are taken over the
// workload's plan requests where it has them, else over its writes.
func layerTimes(wl string, rows []requestTimes, m map[string]float64) {
	var plans, writes []requestTimes
	for _, r := range rows {
		if r.op == "plan" {
			plans = append(plans, r)
		} else {
			writes = append(writes, r)
		}
	}
	if len(writes) > 0 {
		m["replicate.ack_wait_p50_ms"] = median(column(writes, func(r requestTimes) float64 { return r.ackWait }))
		m["replicate.ship_apply_p50_ms"] = median(column(writes, func(r requestTimes) float64 { return r.shipApply }))
	}
	main := plans
	if wl == wlAckedWrite {
		main = writes
	}
	if len(main) == 0 {
		return
	}
	med := func(f func(requestTimes) float64) float64 { return median(column(main, f)) }
	client := med(func(r requestTimes) float64 { return r.client })
	clientSelf := med(requestTimes.clientSelf)
	routerSelf := med(requestTimes.routerSelf)
	handler := med(func(r requestTimes) float64 { return r.httpapi })
	ackWait := med(func(r requestTimes) float64 { return r.ackWait })
	m["client.self_p50_us"] = clientSelf * 1e3
	m["router.handle_p50_us"] = med(func(r requestTimes) float64 { return r.router }) * 1e3
	m["router.self_p50_us"] = routerSelf * 1e3
	m["httpapi.handle_p50_us"] = handler * 1e3
	if routerTotal := m["router.handle_p50_us"]; routerTotal > 0 {
		m["router.ack_barrier_share"] = ackWait * 1e3 / routerTotal
	}
	if client > 0 {
		m["trace.unexplained_pct"] = (client - (clientSelf + routerSelf + handler + ackWait)) / client * 100
	}
}
