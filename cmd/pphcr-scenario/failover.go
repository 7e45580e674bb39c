package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"time"

	"pphcr/internal/scenario"
)

// storm is one of the two failover scenarios. Both fire the same write
// storm through a Router while the partition leader is killed, replay
// the acked-write multiset against the survivor, and are judged by the
// same gate; they differ in who builds the cluster and who kills the
// leader.
type storm struct {
	name, description string
	// duration is the storm length at -duration-scale 1.
	duration time.Duration
	// failoverBound is the gate's limit on first-failed-probe→promoted.
	// kill-node's in-process router probes every 25ms; failover-storm
	// allows for pphcr-router's 100ms probes on a shared CI runner.
	failoverBound time.Duration
	// external storms drive real processes behind -router, and the
	// leader kill comes from outside (CI's kill -9).
	external bool
}

var storms = []storm{
	{
		name:          "kill-node",
		description:   "two-node replicated cluster in-process, leader crash-killed mid-storm, zero-lost-acked-writes oracle",
		duration:      6 * time.Second,
		failoverBound: 10 * time.Second,
	},
	{
		name:          "failover-storm",
		description:   "the same storm and oracle against real processes behind -router; kill the leader from outside",
		duration:      20 * time.Second,
		failoverBound: 15 * time.Second,
		external:      true,
	},
}

// stormFlags are the command-line values a storm reads.
type stormFlags struct {
	seed                   int64
	users, writers         int
	durScale               float64
	routerURL, followerURL string
	gate                   bool
	reportPath             string
}

// stormReport is the JSON shape of a storm run.
type stormReport struct {
	Scenario string                   `json:"scenario"`
	Storm    *scenario.FailoverReport `json:"storm"`
	Checks   []string                 `json:"checks"`
	Pass     bool                     `json:"pass"`
}

// runStorm runs st, prints the gate's PASS/FAIL lines and returns the
// exit code: non-zero on an error, or with -gate on any failed check.
func runStorm(st storm, f stormFlags) int {
	duration := time.Duration(float64(st.duration) * f.durScale)
	var (
		rep *scenario.FailoverReport
		err error
	)
	if st.external {
		if f.routerURL == "" {
			return fail(fmt.Errorf("%s requires -router", st.name))
		}
		rep, err = scenario.RunFailoverStorm(scenario.FailoverOptions{
			RouterURL:   f.routerURL,
			FollowerURL: f.followerURL,
			Users:       f.users,
			Writers:     f.writers,
			Duration:    duration,
			AckTimeout:  15 * time.Second,
			Logf:        log.Printf,
		})
	} else {
		rep, err = scenario.RunKillNode(scenario.KillNodeOptions{
			Seed:     f.seed,
			Users:    f.users,
			Writers:  f.writers,
			Duration: duration,
			Logf:     log.Printf,
		})
	}
	if err != nil {
		return fail(err)
	}

	checks, pass := rep.Gate(st.failoverBound)
	fmt.Printf("%s: %d writes, %d acked, %d unacked, %d lost, failover %dms, max replication lag %dms\n",
		st.name, rep.Writes, rep.Acked, rep.Unacked, rep.LostAcked, rep.FailoverMs, rep.MaxLagMs)
	for _, c := range checks {
		fmt.Println("  " + c)
	}
	if f.reportPath != "" {
		if err := writeReport(f.reportPath, stormReport{st.name, rep, checks, pass}); err != nil {
			return fail(err)
		}
	}
	if f.gate && !pass {
		fmt.Fprintf(os.Stderr, "%s: gate FAILED\n", st.name)
		return 1
	}
	return 0
}

// writeReport writes v as indented JSON to path.
func writeReport(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	log.Printf("report written to %s", path)
	return nil
}
