package scenario

import (
	"strings"
	"testing"
	"time"
)

// TestFailoverGate pins the one gate kill-node and failover-storm
// share: each way a storm can fail trips exactly its own check.
func TestFailoverGate(t *testing.T) {
	clean := FailoverReport{Writes: 100, Acked: 90, Unacked: 10, Failovers: 1, FailoverMs: 400}
	for _, tc := range []struct {
		name   string
		mutate func(*FailoverReport)
		fails  string // substring of the one FAIL line; "" = clean pass
	}{
		{"clean run", func(*FailoverReport) {}, ""},
		{"lost acked write", func(r *FailoverReport) { r.LostAcked = 1; r.LostSample = []string{"u|i|1"} }, "zero lost acked writes"},
		{"zero acked", func(r *FailoverReport) { r.Acked = 0; r.Unacked = 100 }, "acked writes > 0"},
		{"no failover", func(r *FailoverReport) { r.Failovers = 0 }, "failover happened"},
		{"failover over the bound", func(r *FailoverReport) { r.FailoverMs = 10_001 }, "failover bounded"},
	} {
		rep := clean
		tc.mutate(&rep)
		checks, pass := rep.Gate(10 * time.Second)
		var failed []string
		for _, c := range checks {
			if strings.HasPrefix(c, "FAIL ") {
				failed = append(failed, c)
			}
		}
		if tc.fails == "" {
			if !pass || len(failed) != 0 {
				t.Errorf("%s: pass=%v, failed %v", tc.name, pass, failed)
			}
			continue
		}
		if pass || len(failed) != 1 || !strings.Contains(failed[0], tc.fails) {
			t.Errorf("%s: pass=%v, failed %v, want one FAIL containing %q", tc.name, pass, failed, tc.fails)
		}
	}
}

// TestRunKillNode is the zero-lost-acked-writes proof under go test: a
// write storm through the Router, the leader crash-killed a third of
// the way in, and every acked write present on the promoted follower.
func TestRunKillNode(t *testing.T) {
	rep, err := RunKillNode(KillNodeOptions{Seed: 10, Duration: 2 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Acked == 0 {
		t.Fatalf("no write acked: %+v", rep)
	}
	if rep.LostAcked != 0 {
		t.Fatalf("%d acked writes lost (sample %v)", rep.LostAcked, rep.LostSample)
	}
	if rep.Failovers < 1 {
		t.Fatalf("leader killed but no failover: %+v", rep)
	}
}
