// Durability: run a PPHCR system on a write-ahead log, checkpoint it,
// crash it mid-flight with a torn final record, and recover a fresh
// instance to the exact pre-crash state — plus the atomic snapshot
// helper every file-level snapshot in this repo uses.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"pphcr"
	"pphcr/internal/durable"
	"pphcr/internal/feedback"
	"pphcr/internal/profile"
	"pphcr/internal/synth"
)

func main() {
	world, err := synth.GenerateWorld(synth.Params{Seed: 4, Days: 3, Users: 1, PodcastsPerDay: 40})
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "pphcr-durability-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. A fresh system bound to an empty data directory: every mutation
	//    below lands in the WAL before the call returns (SyncAlways).
	sys, err := pphcr.NewWorld(world, 1)
	if err != nil {
		log.Fatal(err)
	}
	dur, err := pphcr.OpenDurability(sys, pphcr.DurabilityOptions{Dir: dir, Sync: durable.SyncAlways})
	if err != nil {
		log.Fatal(err)
	}

	if err := sys.IngestAll(world.Corpus); err != nil {
		log.Fatal(err)
	}
	if err := sys.RegisterUser(profile.Profile{UserID: "greg", Name: "Greg", Interests: []string{"sport"}}); err != nil {
		log.Fatal(err)
	}
	// 2. A checkpoint folds everything so far into one atomic snapshot
	//    and truncates the covered WAL segments.
	if err := dur.Checkpoint(); err != nil {
		log.Fatal(err)
	}

	// 3. More feedback lands after the checkpoint — recovery must
	//    replay it from the WAL tail.
	now := world.LastPublished().Add(time.Hour)
	var before map[string]float64
	for i, it := range sys.Repo.ByCategory("sport") {
		if i >= 5 {
			break
		}
		// The state before the final event is what recovery must land
		// on: the crash below tears that last record mid-write.
		before = sys.Preferences("greg", now).Map()
		if err := sys.AddFeedback(feedback.Event{
			UserID: "greg", ItemID: it.ID, Kind: feedback.Like,
			At: now.Add(-time.Hour),
		}); err != nil {
			log.Fatal(err)
		}
	}
	st := dur.Stats()
	fmt.Printf("before crash: %d items, %d WAL events appended, %d checkpoints\n",
		sys.Repo.Len(), st.WAL.Appended, st.Checkpoints)

	// 4. Crash: no flush, no final checkpoint — and tear the last WAL
	//    record the way a power cut mid-write would.
	dur.Crash()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	last := segs[len(segs)-1]
	if info, err := os.Stat(last); err == nil && info.Size() > 8 {
		_ = os.Truncate(last, info.Size()-4)
	}

	// 5. Recovery: newest valid checkpoint + WAL tail replay, torn
	//    final record dropped.
	restored, err := pphcr.NewWorld(world, 1)
	if err != nil {
		log.Fatal(err)
	}
	rdur, err := pphcr.OpenDurability(restored, pphcr.DurabilityOptions{Dir: dir, Sync: durable.SyncAlways})
	if err != nil {
		log.Fatal(err)
	}
	defer rdur.Close()
	fmt.Printf("recovered: %d items, %d WAL events replayed (torn tail dropped: %v)\n",
		restored.Repo.Len(), rdur.ReplayedEvents(), rdur.Stats().RecoveredTorn)

	after := restored.Preferences("greg", now).Map()
	for cat, w := range before {
		if d := w - after[cat]; d > 1e-9 || d < -1e-9 {
			log.Fatalf("preference drift on %q: %v vs %v", cat, w, after[cat])
		}
	}
	fmt.Println("greg's preference vector survived the crash exactly (minus the torn final record)")

	// 6. SaveSnapshot is the standalone atomic dump (temp file + fsync +
	//    rename): a crash mid-write can never corrupt the only copy.
	snap := filepath.Join(dir, "backup.snap")
	if err := restored.SaveSnapshot(snap); err != nil {
		log.Fatal(err)
	}
	info, _ := os.Stat(snap)
	fmt.Printf("atomic snapshot saved: %s (%d bytes)\n", filepath.Base(snap), info.Size())
}
