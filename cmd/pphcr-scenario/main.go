// Command pphcr-scenario drives named city-scale scenarios — rush-hour
// commute ramps, breaking-news flash crowds, churn storms, ephemeral
// context shifts, degraded-disk brown-outs — against a live System at
// 100k+ simulated users, judges the run against an SLO spec, and emits
// a per-phase, per-stage tail report (human text and JSON). Two more
// scenarios storm a replicated cluster with writes while its leader is
// killed and gate on zero lost acked writes: kill-node builds the
// cluster in-process, failover-storm drives real processes behind
// -router.
//
// Usage:
//
//	pphcr-scenario -scenario city-day -users 100000 -slo 'plan_p99=250ms,error_rate=0.01,recovery=10s,readyz_stable' -gate
//	pphcr-scenario -scenario kill-node -gate
//	pphcr-scenario -scenario failover-storm -router http://127.0.0.1:8000 -follower http://127.0.0.1:8081 -gate
//	pphcr-scenario -list
//
// CI runs a scaled-down pass (-scale / -duration-scale) with -gate: a
// breached SLO fails the build.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"pphcr"
	"pphcr/internal/durable"
	"pphcr/internal/httpapi"
	"pphcr/internal/node"
	"pphcr/internal/pipeline"
	"pphcr/internal/scenario"
	"pphcr/internal/synth"
)

// slowRank wraps the Rank stage with an injected stall — the SLO
// gate's self-test: CI proves the gate trips by running a scaled-down
// scenario with -inject-slow-rank and expecting failure.
type slowRank struct {
	inner pipeline.Rank
	delay time.Duration
}

func (s slowRank) Rank(t *pipeline.Task) {
	time.Sleep(s.delay)
	s.inner.Rank(t)
}

func main() { os.Exit(run()) }

// fail logs err and returns the failing exit code.
func fail(err error) int {
	log.Print(err)
	return 1
}

// run is main's body; it returns the exit code instead of calling
// os.Exit so its defers (the temp WAL directory, the open WAL) fire on
// every path, a tripped gate included.
func run() int {
	var (
		name        = flag.String("scenario", "city-day", "named scenario to run (see -list)")
		list        = flag.Bool("list", false, "list the scenario catalog and exit")
		users       = flag.Int("users", 0, "simulated population (0 = the scenario's default)")
		drivers     = flag.Int("drivers", 0, "drivers with mobility models (0 = the scenario's default)")
		workers     = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		seed        = flag.Int64("seed", 2017, "deterministic seed: schedule, world and population")
		scale       = flag.Float64("scale", 1.0, "multiply every phase arrival rate")
		durScale    = flag.Float64("duration-scale", 1.0, "multiply every phase duration")
		sloSpec     = flag.String("slo", "", "SLO spec, e.g. plan_p99=250ms,error_rate=0.01,recovery=10s,readyz_stable")
		gate        = flag.Bool("gate", false, "exit 1 when an SLO check fails")
		reportPath  = flag.String("report", "", "write the JSON report to this file")
		dataDir     = flag.String("data-dir", "", "durability directory (default: a temp dir, removed afterwards)")
		walSync     = flag.String("wal-sync", "always", "WAL fsync policy: always or interval — or 'off' to run without durability")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /stats and /readyz here while the scenario runs")
		slowRankUS  = flag.Int("inject-slow-rank", 0, "inject this many microseconds of stall into the Rank stage (SLO-gate self-test)")
		routerURL   = flag.String("router", "", "failover-storm: URL of the cluster's pphcr-router")
		followerURL = flag.String("follower", "", "failover-storm: follower URL polled for replication lag (optional)")
	)
	flag.Parse()

	if *list {
		for _, n := range scenario.Names() {
			s, _ := scenario.ByName(n)
			fmt.Printf("%-14s %s (%d users, %d drivers, %v)\n",
				s.Name, s.Description, s.Users, s.Drivers, s.TotalDuration())
		}
		for _, st := range storms {
			fmt.Printf("%-14s %s\n", st.name, st.description)
		}
		return 0
	}

	// The storms are not catalog scenarios: they drive a two-node
	// replicated cluster instead of one System through the phase engine,
	// and their SLO is the zero-lost-acked-writes invariant.
	for _, st := range storms {
		if st.name == *name {
			return runStorm(st, stormFlags{
				seed: *seed, users: *users, writers: *workers, durScale: *durScale,
				routerURL: *routerURL, followerURL: *followerURL,
				gate: *gate, reportPath: *reportPath,
			})
		}
	}

	script, ok := scenario.ByName(*name)
	if !ok {
		return fail(fmt.Errorf("unknown scenario %q (try -list)", *name))
	}
	if *users > 0 {
		script.Users = *users
	}
	if *drivers > 0 {
		script.Drivers = *drivers
	}
	slo, err := scenario.ParseSpec(*sloSpec)
	if err != nil {
		return fail(err)
	}

	// The synthetic world only needs enough personas to clone from and
	// enough corpus for the candidate window; the population builder
	// scales it to Script.Users.
	personas := script.Drivers + 50
	if personas > script.Users {
		personas = script.Users
	}
	if personas < 50 {
		personas = 50
	}
	log.Printf("generating world (seed=%d personas=%d)...", *seed, personas)
	w, err := synth.GenerateWorld(synth.Params{
		Seed: *seed, Days: 3, Users: personas, Stations: 4,
		PodcastsPerDay: 30, TrainingDocsPerCategory: 8,
	})
	if err != nil {
		return fail(err)
	}
	sys, err := pphcr.NewWorld(w, *seed)
	if err != nil {
		return fail(err)
	}
	if *slowRankUS > 0 {
		pipe := sys.Pipeline()
		pipe.Rank = slowRank{inner: pipe.Rank, delay: time.Duration(*slowRankUS) * time.Microsecond}
		log.Printf("injected %dµs stall into the Rank stage", *slowRankUS)
	}

	pop, err := scenario.BuildPopulation(sys, w, script.Users, script.Drivers, log.Printf)
	if err != nil {
		return fail(err)
	}

	// Durability attaches after the preload (the preload is boot state,
	// not workload) and a checkpoint folds it in, so the WAL carries
	// only what the scenario writes.
	var dur *pphcr.Durability
	if *walSync != "off" {
		dir := *dataDir
		if dir == "" {
			dir, err = os.MkdirTemp("", "pphcr-scenario-*")
			if err != nil {
				return fail(err)
			}
			defer os.RemoveAll(dir)
		}
		policy, err := durable.ParseSyncPolicy(*walSync)
		if err != nil {
			return fail(err)
		}
		dur, err = pphcr.OpenDurability(sys, pphcr.DurabilityOptions{Dir: dir, Sync: policy})
		if err != nil {
			return fail(err)
		}
		defer dur.Close()
		if err := dur.Checkpoint(); err != nil {
			return fail(err)
		}
		log.Printf("durability enabled in %s (wal-sync=%s)", dir, policy)
	}

	eng := scenario.NewEngine(sys, dur, pop, scenario.Options{
		Seed:          *seed,
		Workers:       *workers,
		RateScale:     *scale,
		DurationScale: *durScale,
		Logf:          log.Printf,
	})

	if *metricsAddr != "" {
		api := httpapi.NewServer(sys)
		eng.RegisterMetrics(api.Registry())
		if dur != nil {
			node.ServeDurability(api, dur)
		}
		api.SetReady(true)
		go func() {
			if err := http.ListenAndServe(*metricsAddr, api.Handler()); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
		log.Printf("serving /metrics on %s", *metricsAddr)
	}

	report, err := eng.Run(script)
	if err != nil {
		return fail(err)
	}
	slo.Evaluate(report)

	report.WriteHuman(os.Stdout)
	if *reportPath != "" {
		if err := writeReport(*reportPath, report); err != nil {
			return fail(err)
		}
	}
	if *gate && !report.SLOPass {
		fmt.Fprintln(os.Stderr, "scenario: SLO gate FAILED")
		return 1
	}
	return 0
}
