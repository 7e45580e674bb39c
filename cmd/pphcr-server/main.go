// Command pphcr-server runs the PPHCR content server (Fig 3): the public
// REST API consumed by client apps and the web control dashboard used in
// the demonstration (Figs 5–6), loaded with a synthetic world (stations,
// schedules, podcast corpus, personas).
//
// Usage:
//
//	pphcr-server -addr :8080 -seed 2017 -days 14 -users 20
//
// Then, for example:
//
//	curl localhost:8080/healthz
//	curl localhost:8080/metrics
//	curl localhost:8080/api/services
//	curl 'localhost:8080/api/recommendations?user=user-000&k=5'
//	open 'localhost:8080/dashboard/trajectory?user=user-000'
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pphcr"
	"pphcr/internal/durable"
	"pphcr/internal/httpapi"
	"pphcr/internal/node"
	"pphcr/internal/obs"
	"pphcr/internal/replicate"
	"pphcr/internal/synth"
)

// fatal logs the error at ERROR and exits; the slog equivalent of
// log.Fatal for boot-time failures.
func fatal(msg string, err error) {
	slog.Error(msg, "err", err)
	os.Exit(1)
}

// parseLogLevel maps the -log-level flag to a slog.Level.
func parseLogLevel(s string) (slog.Level, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(s)); err != nil {
		return 0, fmt.Errorf("bad -log-level %q (use debug, info, warn or error)", s)
	}
	return lvl, nil
}

// logStatusRecorder captures the status and byte count a handler wrote,
// for the access log.
type logStatusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *logStatusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *logStatusRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// accessLog wraps the whole mux: it installs the request-user slot on
// the context (handlers fill it via obs.NoteRequestUser) and logs
// method, path, status, bytes and duration per request. Probe and
// scrape endpoints log at DEBUG so a 15s scrape interval doesn't bury
// the real traffic.
func accessLog(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := obs.WithRequestUser(r.Context())
		rec := &logStatusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r.WithContext(ctx))
		lvl := slog.LevelInfo
		switch r.URL.Path {
		case "/healthz", "/readyz", "/metrics":
			lvl = slog.LevelDebug
		}
		attrs := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"bytes", rec.bytes,
			"dur", time.Since(start).Round(time.Microsecond),
		}
		if u := obs.RequestUser(ctx); u != "" {
			attrs = append(attrs, "user", u)
		}
		logger.Log(r.Context(), lvl, "request", attrs...)
	})
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		seed        = flag.Int64("seed", 2017, "world seed")
		days        = flag.Int("days", 14, "days of synthetic content and schedules")
		users       = flag.Int("users", 20, "synthetic personas")
		track       = flag.Bool("track", true, "preload persona commute traces and compact them")
		warmWorkers = flag.Int("warm-workers", 4, "plan-warming worker pool size (0 disables the warmer)")
		fbEvery     = flag.Int("feedback-compact-every", 512, "feedback events per user between compactions (0 disables)")
		dataDir     = flag.String("data-dir", "", "durability directory (WAL + checkpoints); empty runs in-memory only")
		walSync     = flag.String("wal-sync", "interval", "WAL fsync policy: always or interval")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn or error")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		traceThresh = flag.Duration("trace-threshold", 250*time.Millisecond, "keep per-request stage traces slower than this in /debug/traces (0 disables tracing)")
		role        = flag.String("role", "leader", "replication role: leader or follower")
		leaderURL   = flag.String("leader-url", "", "follower: base URL of the leader whose WAL this node tails")
		nodeID      = flag.String("node-id", "", "this node's id in the topology (scopes the preload to owned users)")
		topoPath    = flag.String("topology", "", "topology file; with -node-id the preload registers only owned users")
		retainWAL   = flag.Bool("retain-wal", false, "keep WAL segments past checkpoints (required on replicated leaders: followers bootstrap and rebalances replay from the full log)")
	)
	flag.Parse()

	lvl, err := parseLogLevel(*logLevel)
	if err != nil {
		fatal("flags", err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	slog.SetDefault(logger)

	isFollower := false
	switch *role {
	case "leader":
	case "follower":
		isFollower = true
		if *leaderURL == "" || *dataDir == "" {
			fatal("flags", fmt.Errorf("-role follower requires -leader-url and -data-dir"))
		}
	default:
		fatal("flags", fmt.Errorf("bad -role %q (use leader or follower)", *role))
	}
	var ring *replicate.Ring
	if *topoPath != "" {
		topo, err := replicate.LoadTopology(*topoPath)
		if err != nil {
			fatal("topology", err)
		}
		ring = replicate.NewRing(topo)
	}

	slog.Info("generating synthetic world", "seed", *seed, "days", *days, "users", *users)
	w, err := synth.GenerateWorld(synth.Params{Seed: *seed, Days: *days, Users: *users})
	if err != nil {
		fatal("generate world", err)
	}
	// The broadcast directory is the world's: ephemeral metadata,
	// regenerated each boot and never snapshotted.
	sys, err := pphcr.NewWorld(w, *seed)
	if err != nil {
		fatal("system init", err)
	}

	// The API server exists before recovery so the readiness boot gate is
	// honest: closed until recovered state (or the synthetic preload) is
	// in place, even if a deployment opens the listener earlier.
	api := httpapi.NewServer(sys)
	api.SetReady(false)
	if *traceThresh > 0 {
		api.EnableTracing(64, *traceThresh)
	}

	policy, err := durable.ParseSyncPolicy(*walSync)
	if err != nil {
		fatal("durability", err)
	}
	// The synthetic world lives in the past; anchor the node's clock to
	// it so plan warming targets instants that actually have candidates.
	// The clock reads worldEnd when the node starts serving (bootReal is
	// set then, before any service reads it).
	worldEnd := w.Params.StartDate.AddDate(0, 0, w.Params.Days)
	var bootReal time.Time
	n := node.New(sys, api, node.Options{
		Dir:                  *dataDir,
		Sync:                 policy,
		RetainWAL:            *retainWAL,
		FeedbackCompactEvery: *fbEvery,
		WarmWorkers:          *warmWorkers,
		Clock:                func() time.Time { return worldEnd.Add(time.Since(bootReal)) },
	})
	// Recovery runs before anything mutates the fresh System and before
	// the listener opens. A follower opens no WAL of its own.
	var dur *pphcr.Durability
	if !isFollower {
		if dur, err = n.Open(); err != nil {
			fatal("durability", err)
		}
	}

	// The synthetic preload only populates a fresh deployment; a
	// recovered one already holds this state (plus everything that
	// happened since) and re-ingesting would duplicate it. A follower
	// boots empty on purpose: the leader's WAL begins with the leader's
	// own preload, so tailing from sequence 1 reconstructs everything.
	if !isFollower && (dur == nil || !dur.Recovered()) {
		slog.Info("ingesting podcasts through the ASR+Bayes pipeline", "count", len(w.Corpus))
		start := time.Now()
		if err := sys.IngestAll(w.Corpus); err != nil {
			fatal("ingest", err)
		}
		slog.Info("ingested", "dur", time.Since(start).Round(time.Millisecond))
		// Under a topology this node registers only the users it owns;
		// the catalog above is identical on every node (same seed).
		personas := ownedPersonas(w.Personas, ring, *nodeID)
		if ring != nil {
			slog.Info("topology-scoped preload", "node", *nodeID,
				"owned", len(personas), "total", len(w.Personas))
		}
		for _, p := range personas {
			if err := sys.RegisterUser(p.Profile); err != nil {
				fatal("register user", err)
			}
		}
		if *track {
			slog.Info("preloading commute traces", "personas", len(personas))
			for _, p := range personas {
				trace, err := w.Commutes(p, w.Params.StartDate, w.Params.Days)
				if err != nil {
					fatal("commute trace", err)
				}
				if err := sys.RecordTrace(p.Profile.UserID, trace); err != nil {
					fatal("record fix", err)
				}
				if _, err := sys.CompactTracking(p.Profile.UserID); err != nil {
					slog.Warn("compact failed", "user", p.Profile.UserID, "err", err)
				}
			}
		}
		if dur != nil {
			// Fold the preload into checkpoint zero so the next boot
			// restores it instead of replaying the whole WAL.
			if err := dur.Checkpoint(); err != nil {
				fatal("initial checkpoint", err)
			}
			slog.Info("initial checkpoint written", "dir", *dataDir)
		}
	}

	bootReal = time.Now()
	mux := http.NewServeMux()
	if isFollower {
		if err := n.Follow(mux, *leaderURL); err != nil {
			fatal("standby", err)
		}
	} else if err := n.Lead(mux); err != nil {
		fatal("leader services", err)
	}

	// State is loaded (recovered or preloaded) and the cache is warm:
	// open the readiness gate before the listener starts. A follower is
	// ready for (stale-tolerant) reads while it catches up; its role on
	// /readyz tells routers and operators what they are talking to.
	api.SetReady(true)

	mux.Handle("/api/", api.Handler())
	mux.Handle("/healthz", api.Handler())
	mux.Handle("/readyz", api.Handler())
	mux.Handle("/metrics", api.Handler())
	mux.Handle("/debug/traces", api.Handler())
	mux.Handle("/stats", api.Handler())
	mux.Handle("/dashboard/", api.Handler())
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		slog.Info("pprof mounted", "path", "/debug/pprof/")
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "PPHCR content server — see /api/services, /api/recommendations, /api/plan, /stats, /metrics, /dashboard/trajectory")
	})
	worldNow := worldEnd.Unix()
	slog.Info("PPHCR server listening", "addr", *addr, "users", firstN(sys.Profiles.UserIDs(), 3))
	// A follower boots with zero users (its state arrives over the WAL),
	// so there may be no example user to print.
	if ids := firstN(sys.Profiles.UserIDs(), 1); len(ids) > 0 {
		slog.Info("the synthetic world lives in the past — pass its clock to time-scoped endpoints",
			"world_unix", worldNow,
			"example", fmt.Sprintf("curl 'localhost%s/api/recommendations?user=%s&k=5&unix=%d'",
				*addr, ids[0], worldNow))
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight requests and stop
	// the background workers.
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	srv := &http.Server{Addr: *addr, Handler: accessLog(logger, mux)}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		n.Drain()
		fatal("serve", err)
	case <-ctx.Done():
	}
	slog.Info("shutting down")
	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShutdown()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		slog.Warn("shutdown", "err", err)
	}
	// Drain after the listener drained: its final checkpoint then holds
	// every acknowledged mutation.
	n.Drain()
	slog.Info("bye")
}

// ownedPersonas filters personas to the ones this node owns under the
// topology; with no topology every persona is local.
func ownedPersonas(personas []*synth.Persona, ring *replicate.Ring, nodeID string) []*synth.Persona {
	if ring == nil || nodeID == "" {
		return personas
	}
	owned := personas[:0:0]
	for _, p := range personas {
		if ring.Owner(p.Profile.UserID) == nodeID {
			owned = append(owned, p)
		}
	}
	return owned
}

func firstN(xs []string, n int) []string {
	if len(xs) < n {
		return xs
	}
	return xs[:n]
}
