package experiments

import (
	"fmt"
	"maps"
	"math/rand"
	"time"

	"pphcr/internal/asr"
	"pphcr/internal/baseline"
	"pphcr/internal/client"
	"pphcr/internal/content"
	"pphcr/internal/feedback"
	"pphcr/internal/geo"
	"pphcr/internal/recommend"
	"pphcr/internal/streamsim"
	"pphcr/internal/synth"
	"pphcr/internal/textclass"
	"pphcr/internal/trajectory"
)

// warmUp simulates a feedback history for every persona: each listener
// plays a sample of repository items and the app reports the resulting
// implicit/explicit events. Returns the per-user simulated listeners and
// the set of items each user has already consumed.
func warmUp(e *env, plays int, pop *baseline.Popularity) (map[string]*client.Listener, map[string]map[string]bool, error) {
	listeners := make(map[string]*client.Listener)
	seen := make(map[string]map[string]bool)
	all := e.Sys.Repo.All()
	for ui, p := range e.World.Personas {
		user := p.Profile.UserID
		l := client.NewListener(user, p.TrueInterests, p.Seed)
		listeners[user] = l
		seen[user] = make(map[string]bool)
		rng := rand.New(rand.NewSource(p.Seed + 7))
		start := e.World.Params.StartDate.AddDate(0, 0, 1)
		for i := 0; i < plays; i++ {
			it := all[rng.Intn(len(all))]
			seen[user][it.ID] = true
			at := start.Add(time.Duration(i) * 20 * time.Minute)
			out := l.Play(it, at)
			for _, ev := range out.Events {
				if err := e.Sys.AddFeedback(ev); err != nil {
					return nil, nil, err
				}
				if pop != nil && (ev.Kind == feedback.Like || ev.Kind == feedback.ImplicitListen) {
					pop.Observe(it.ID)
				}
			}
		}
		_ = ui
	}
	return listeners, seen, nil
}

// runQ1 measures ranking quality against the baseline ladder. Ground
// truth relevance comes from the personas' hidden tastes, which the
// recommenders can only observe through the feedback they generated.
func runQ1(cfg Config) error {
	e, err := newEnv(cfg)
	if err != nil {
		return err
	}
	pop := baseline.NewPopularity()
	warmPlays := 80
	if cfg.Quick {
		warmPlays = 40
	}
	listeners, seen, err := warmUp(e, warmPlays, pop)
	if err != nil {
		return err
	}
	recommenders := []baseline.Recommender{
		baseline.NewRandom(cfg.seed()),
		pop,
		baseline.NewContentOnly(),
		baseline.NewCompound(0.4),
	}
	type agg struct{ p5, ndcg10, mrr []float64 }
	results := make(map[string]*agg)
	for _, r := range recommenders {
		results[r.Name()] = &agg{}
	}
	candidates := e.Sys.Candidates(e.Now)
	ctx := recommend.Context{Now: e.Now, Driving: false}
	for _, p := range e.World.Personas {
		user := p.Profile.UserID
		l := listeners[user]
		// Unseen candidate pool for this user.
		var pool []*content.Item
		relevant := map[string]bool{}
		gains := map[string]float64{}
		for _, it := range candidates {
			if seen[user][it.ID] {
				continue
			}
			pool = append(pool, it)
			aff := l.Affinity(it)
			if aff >= 0.5 {
				relevant[it.ID] = true
			}
			gains[it.ID] = aff
		}
		if len(relevant) == 0 {
			continue
		}
		prefs := e.Sys.Preferences(user, e.Now).Map()
		for _, r := range recommenders {
			ranked := r.Rank(prefs, pool, ctx, 10)
			ids := make([]string, len(ranked))
			for i, sc := range ranked {
				ids[i] = sc.Item.ID
			}
			a := results[r.Name()]
			a.p5 = append(a.p5, precisionAtK(ids, relevant, 5))
			a.ndcg10 = append(a.ndcg10, ndcgAtK(ids, gains, 10))
			a.mrr = append(a.mrr, mrr(ids, relevant))
		}
	}
	tb := newTable("recommender", "P@5", "nDCG@10", "MRR", "users")
	for _, r := range recommenders {
		a := results[r.Name()]
		tb.add(r.Name(),
			fmt.Sprintf("%.3f", mean(a.p5)),
			fmt.Sprintf("%.3f", mean(a.ndcg10)),
			fmt.Sprintf("%.3f", mean(a.mrr)),
			fmt.Sprintf("%d", len(a.p5)))
	}
	tb.write(cfg.Out)
	randP, compP := mean(results["random"].p5), mean(results["pphcr-compound"].p5)
	fmt.Fprintln(cfg.Out)
	cfg.check("personalized > random", compP > randP,
		"personalized (%.3f) > random (%.3f)", compP, randP)
	return nil
}

// q2Policy is one listening strategy for the behaviour simulation.
type q2Policy int

const (
	policyLinear q2Policy = iota
	policyReactive
	policyPPHCR
)

func (p q2Policy) String() string {
	switch p {
	case policyLinear:
		return "linear radio"
	case policyReactive:
		return "reactive (skip-triggered)"
	case policyPPHCR:
		return "pphcr (proactive)"
	default:
		return "?"
	}
}

// runQ2 simulates commute listening under three policies and reports the
// behaviour metrics the paper's prose targets: skip rate, listening
// share, and channel switching.
func runQ2(cfg Config) error {
	e, err := newEnv(cfg)
	if err != nil {
		return err
	}
	if _, _, err := warmUp(e, 50, nil); err != nil {
		return err
	}
	nUsers := 6
	testDays := 5
	if cfg.Quick {
		nUsers = 3
		testDays = 3
	}
	if nUsers > len(e.World.Personas) {
		nUsers = len(e.World.Personas)
	}
	// Track + compact the evaluation personas.
	for _, p := range e.World.Personas[:nUsers] {
		if err := e.trackPersona(p, e.World.Params.Days); err != nil {
			return err
		}
	}
	stats := map[q2Policy]*listeningStats{
		policyLinear: {}, policyReactive: {}, policyPPHCR: {},
	}
	policies := []q2Policy{policyLinear, policyReactive, policyPPHCR}
	for _, p := range e.World.Personas[:nUsers] {
		for d := 0; d < testDays; d++ {
			day := synth.NextWeekday(e.World.Params.StartDate.AddDate(0, 0, e.World.Params.Days+d))
			full, _, err := e.World.CommuteTrace(p, day, true)
			if err != nil {
				return err
			}
			commute := full.Duration()
			for _, policy := range policies {
				// A fresh, identically-seeded listener per policy so the
				// conditions see the same behaviour realization.
				l := client.NewListener(p.Profile.UserID, p.TrueInterests, p.Seed+99)
				s, err := e.simulateCommute(p, l, full, commute, policy)
				if err != nil {
					return err
				}
				stats[policy].add(s)
			}
		}
	}
	tb := newTable("policy", "skip rate", "listen share", "switches/h", "plays")
	for _, pol := range []q2Policy{policyLinear, policyReactive, policyPPHCR} {
		s := stats[pol]
		tb.add(pol.String(),
			fmt.Sprintf("%.3f", s.skipRate()),
			fmt.Sprintf("%.3f", s.listenShare()),
			fmt.Sprintf("%.2f", s.switchesPerHour()),
			fmt.Sprintf("%d", s.Plays))
	}
	tb.write(cfg.Out)
	lin, pph := stats[policyLinear], stats[policyPPHCR]
	fmt.Fprintln(cfg.Out)
	cfg.check("pphcr skip rate < linear", pph.skipRate() < lin.skipRate(),
		"pphcr skip rate %.3f < linear %.3f", pph.skipRate(), lin.skipRate())
	cfg.check("pphcr switches/h < linear", pph.switchesPerHour() < lin.switchesPerHour(),
		"pphcr switches/h %.2f < linear %.2f", pph.switchesPerHour(), lin.switchesPerHour())
	return nil
}

// programAsItem converts an on-air program into a playable item for the
// behaviour model.
func programAsItem(id, title string, cats map[string]float64, remaining time.Duration) *content.Item {
	return &content.Item{
		ID: id, Title: title, Kind: content.KindClip,
		Duration: remaining, Categories: cats,
	}
}

// simulateCommute plays one commute under a policy and returns its
// listening stats.
func (e *env) simulateCommute(p *synth.Persona, l *client.Listener, full trajectory.Trace, commute time.Duration, policy q2Policy) (listeningStats, error) {
	var st listeningStats
	st.Available = commute
	user := p.Profile.UserID
	service := p.Profile.FavoriteService
	start := full[0].Time
	cursor := time.Duration(0)

	// Proactive plan (pphcr policy only).
	var planned []*content.Item
	if policy == policyPPHCR {
		partial := full.Head(3 * time.Minute)
		tp, err := e.Sys.PlanTrip(user, partial, partial[len(partial)-1].Time, nil)
		if err == nil && tp.Proactive {
			for _, it := range tp.Plan.Items {
				planned = append(planned, it.Scored.Item)
			}
		}
	}
	// Reactive queue: top organic recommendations, consumed on skip.
	var reactiveQueue []*content.Item
	if policy == policyReactive {
		for _, sc := range e.Sys.Recommend(user, recommend.Context{Now: start, Driving: true}, 10) {
			reactiveQueue = append(reactiveQueue, sc.Item)
		}
	}
	services := e.Sys.Directory.Services()
	svcIdx := 0
	for i, s := range services {
		if s.ID == service {
			svcIdx = i
		}
	}
	useRecommended := func() *content.Item {
		if len(planned) > 0 {
			it := planned[0]
			planned = planned[1:]
			return it
		}
		return nil
	}
	for cursor < commute {
		now := start.Add(cursor)
		var it *content.Item
		if policy == policyPPHCR {
			it = useRecommended()
		}
		if it == nil {
			// Live radio on the current service.
			prog, err := e.Sys.Directory.ProgramAt(services[svcIdx].ID, now)
			if err != nil {
				// Outside schedule: idle radio filler, clamped so the
				// session never exceeds the commute.
				step := 30 * time.Second
				if remaining := commute - cursor; step > remaining {
					step = remaining
				}
				st.Listened += step
				cursor += step
				continue
			}
			remaining := prog.End().Sub(now)
			if remaining > commute-cursor {
				remaining = commute - cursor
			}
			it = programAsItem(prog.ID, prog.Title, prog.Categories, remaining)
		} else if it.Duration > commute-cursor {
			// Clip longer than remaining drive: truncated by arrival.
			it = programAsItem(it.ID, it.Title, maps.Collect(it.Weights()), commute-cursor)
		}
		if it.Duration <= 0 {
			break
		}
		out := l.Play(it, now)
		st.Plays++
		st.Listened += out.Listened
		cursor += out.Listened
		if out.Skipped {
			st.Skips++
			switch policy {
			case policyLinear:
				// Channel surf: zap to the next station.
				st.Switches++
				svcIdx = (svcIdx + 1) % len(services)
			case policyReactive:
				if len(reactiveQueue) > 0 {
					next := reactiveQueue[0]
					reactiveQueue = reactiveQueue[1:]
					if d := commute - cursor; next.Duration > d && d > 0 {
						next = programAsItem(next.ID, next.Title, maps.Collect(next.Weights()), d)
					}
					if next.Duration > 0 {
						out2 := l.Play(next, start.Add(cursor))
						st.Plays++
						st.Listened += out2.Listened
						cursor += out2.Listened
						if out2.Skipped {
							st.Skips++
						}
					}
				} else {
					st.Switches++
					svcIdx = (svcIdx + 1) % len(services)
				}
			case policyPPHCR:
				// Skip moves to the next planned/live content; no zap.
			}
		}
	}
	return st, nil
}

// runQ3 measures destination and ΔT prediction quality as the tracked
// history grows.
func runQ3(cfg Config) error {
	e, err := newEnv(cfg)
	if err != nil {
		return err
	}
	historyDays := []int{2, 4, 7, 10, 14}
	if cfg.Quick {
		historyDays = []int{2, 5}
	}
	nUsers := 5
	if cfg.Quick {
		nUsers = 3
	}
	if nUsers > len(e.World.Personas) {
		nUsers = len(e.World.Personas)
	}
	tb := newTable("history (days)", "dest top-1 acc", "ΔT MAPE", "trips evaluated")
	var firstAcc, lastAcc float64
	for hi, h := range historyDays {
		var hits, total int
		var apes []float64
		for _, p := range e.World.Personas[:nUsers] {
			// Fresh system state per (user, history) cell: use a scratch
			// tracker via a derived user ID so histories do not mix.
			scratchUser := fmt.Sprintf("%s-h%d", p.Profile.UserID, h)
			trace, err := e.World.Commutes(p, e.World.Params.StartDate, h)
			if err != nil {
				return err
			}
			if err := e.Sys.RecordTrace(scratchUser, trace); err != nil {
				return err
			}
			cm, err := e.Sys.CompactTracking(scratchUser)
			if err != nil {
				continue // too little data to compact: counts as a miss
			}
			// Evaluate the next 3 weekdays, morning AND evening legs.
			// Evenings carry genuine uncertainty: ~20% go to the gym.
			evalDay := synth.NextWeekday(e.World.Params.StartDate.AddDate(0, 0, 14))
			for done := 0; done < 3; done, evalDay = done+1, synth.NextWeekday(evalDay.AddDate(0, 0, 1)) {
				for _, morning := range []bool{true, false} {
					full, _, err := e.World.CommuteTrace(p, evalDay, morning)
					if err != nil {
						return err
					}
					partial := full.Head(3 * time.Minute)
					actualDest := full[len(full)-1].Point
					nowT := partial[len(partial)-1].Time
					pred, ok := cm.Mobility.PredictTrip(partial, nowT)
					total++
					if !ok {
						continue
					}
					destSP := cm.StayPoints[pred.Dest]
					if geo.Distance(destSP.Center, actualDest) < 300 {
						hits++
					}
					actualRemaining := full[len(full)-1].Time.Sub(nowT)
					if actualRemaining > 0 {
						ape := (pred.DeltaT - actualRemaining).Seconds() / actualRemaining.Seconds()
						if ape < 0 {
							ape = -ape
						}
						apes = append(apes, ape)
					}
				}
			}
		}
		acc := 0.0
		if total > 0 {
			acc = float64(hits) / float64(total)
		}
		tb.add(fmt.Sprintf("%d", h), fmt.Sprintf("%.3f", acc),
			fmt.Sprintf("%.3f", mean(apes)), fmt.Sprintf("%d", total))
		if hi == 0 {
			firstAcc = acc
		}
		lastAcc = acc
	}
	tb.write(cfg.Out)
	fmt.Fprintln(cfg.Out)
	cfg.check("accuracy with full history ≥ shortest history", lastAcc >= firstAcc,
		"accuracy with full history (%.3f) ≥ shortest history (%.3f)", lastAcc, firstAcc)
	return nil
}

// runQ4 sweeps the simulated ASR word error rate and reports the
// Bayesian classifier's category accuracy. Classification happens on
// short clip segments (the first ~15 recognized tokens), as it would on
// clips cut from longer programs — long transcripts would make the task
// trivially easy regardless of WER.
func runQ4(cfg Config) error {
	e, err := newEnv(cfg)
	if err != nil {
		return err
	}
	var nb textclass.NaiveBayes
	if err := nb.Train(e.World.Training); err != nil {
		return err
	}
	wers := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	if cfg.Quick {
		wers = []float64{0, 0.2, 0.4}
	}
	corpus := e.World.Corpus
	if cfg.Quick && len(corpus) > 100 {
		corpus = corpus[:100]
	}
	const segmentTokens = 10
	tb := newTable("WER", "segment accuracy", "full-doc accuracy", "measured WER")
	var segAccs, docAccs []float64
	for _, wer := range wers {
		rec, err := asr.New(wer, asr.DefaultErrorProfile(), e.World.FlatVocab, cfg.seed())
		if err != nil {
			return err
		}
		segCorrect, docCorrect := 0, 0
		var measured []float64
		for _, raw := range corpus {
			truthWords := textclass.Tokenize(raw.Speech)
			hyp := textclass.Tokenize(rec.TranscribeText(raw.Speech))
			measured = append(measured, asr.MeasureWER(truthWords, hyp))
			want := firstWord(raw.Title)
			if pred, _, ok := nb.Classify(hyp); ok && pred == want {
				docCorrect++
			}
			seg := hyp
			if len(seg) > segmentTokens {
				seg = seg[:segmentTokens]
			}
			if pred, _, ok := nb.Classify(seg); ok && pred == want {
				segCorrect++
			}
		}
		segAcc := float64(segCorrect) / float64(len(corpus))
		docAcc := float64(docCorrect) / float64(len(corpus))
		segAccs = append(segAccs, segAcc)
		docAccs = append(docAccs, docAcc)
		tb.add(fmt.Sprintf("%.1f", wer), fmt.Sprintf("%.3f", segAcc),
			fmt.Sprintf("%.3f", docAcc), fmt.Sprintf("%.3f", mean(measured)))
	}
	tb.write(cfg.Out)
	clean, noisiest := segAccs[0], segAccs[len(segAccs)-1]
	fmt.Fprintln(cfg.Out)
	cfg.check("segment accuracy degrades with WER", clean > noisiest,
		"segment accuracy degrades with WER (%.3f → %.3f)", clean, noisiest)
	cfg.check("long documents are robust", docAccs[len(docAccs)-1] >= 0.9,
		"long documents are robust (full-doc at max WER %.3f ≥ 0.9)", docAccs[len(docAccs)-1])
	if clean < 0.8 {
		return fmt.Errorf("clean-speech segment accuracy %.3f implausibly low", clean)
	}
	return nil
}

// runQ5 quantifies the paper's network resource optimization: hybrid
// receivers take the linear stream from broadcast and fetch only the
// personalized clips over IP, versus pure streaming clients that unicast
// everything.
func runQ5(cfg Config) error {
	e, err := newEnv(cfg)
	if err != nil {
		return err
	}
	listeners := 1000
	if cfg.Quick {
		listeners = 100
	}
	day := e.World.Params.StartDate.AddDate(0, 0, 1)
	start := day.Add(8 * time.Hour)
	end := start.Add(time.Hour)
	// Each listener replaces ~20% of the hour with two 6-minute clips.
	inserts := []streamsim.Insertion{
		{Kind: streamsim.SourceClip, Ref: "c1", Title: "clip 1", At: start.Add(10 * time.Minute), Duration: 6 * time.Minute},
		{Kind: streamsim.SourceClip, Ref: "c2", Title: "clip 2", At: start.Add(35 * time.Minute), Duration: 6 * time.Minute},
	}
	hybrid := &streamsim.Player{Dir: e.Sys.Directory, ServiceID: "radio1", BroadcastCapable: true}
	ipOnly := &streamsim.Player{Dir: e.Sys.Directory, ServiceID: "radio1", BroadcastCapable: false}
	segs, err := hybrid.BuildTimeline(start, end, inserts)
	if err != nil {
		return err
	}
	perHybrid := hybrid.AccountBandwidth(segs, 96)
	perIP := ipOnly.AccountBandwidth(segs, 96)

	var hybridTotal, ipTotal streamsim.Bandwidth
	for i := 0; i < listeners; i++ {
		hybridTotal.BroadcastBytes += perHybrid.BroadcastBytes
		hybridTotal.UnicastBytes += perHybrid.UnicastBytes
		ipTotal.UnicastBytes += perIP.UnicastBytes
	}
	// The broadcast channel is shared: one transmission serves everyone.
	sharedBroadcast := perHybrid.BroadcastBytes

	toMB := func(b int64) string { return fmt.Sprintf("%.1f MB", float64(b)/1e6) }
	tb := newTable("delivery model", "unicast total", "broadcast (shared)", "unicast/listener")
	tb.add("hybrid content radio", toMB(hybridTotal.UnicastBytes), toMB(sharedBroadcast),
		toMB(perHybrid.UnicastBytes))
	tb.add("pure IP streaming", toMB(ipTotal.UnicastBytes), "0 MB", toMB(perIP.UnicastBytes))
	tb.write(cfg.Out)
	saving := 1 - float64(hybridTotal.UnicastBytes)/float64(ipTotal.UnicastBytes)
	fmt.Fprintf(cfg.Out, "\nunicast traffic saved by hybrid delivery: %.1f%% (%d listeners, 1 h session, 20%% replacement)\n",
		saving*100, listeners)
	if saving < 0.5 {
		return fmt.Errorf("hybrid saving %.2f implausibly low", saving)
	}
	return nil
}

// runQ6 evaluates the tracking compaction: staying-point detection
// quality across DBSCAN ε, and RDP compression/error across ε.
func runQ6(cfg Config) error {
	e, err := newEnv(cfg)
	if err != nil {
		return err
	}
	persona := e.World.Personas[0]
	// Controlled staying-point layout: home and work as the persona has
	// them, plus two *nearby* places 350 m apart (street parking vs the
	// office garage) whose separation stresses the ε choice, and one
	// place visited only twice (below MinPts — must stay undetected).
	nearA := geo.Destination(persona.Work, 90, 175)
	nearB := geo.Destination(persona.Work, 270, 175)
	rare := geo.Destination(persona.Home, 180, 5000)
	truth := []geo.Point{persona.Home, nearA, nearB}
	rng := rand.New(rand.NewSource(cfg.seed() + 6))
	var endpoints []geo.Point
	scatter := func(center geo.Point, visits int, radius float64) {
		for i := 0; i < visits; i++ {
			endpoints = append(endpoints, geo.Destination(center, rng.Float64()*360, rng.Float64()*radius))
		}
	}
	scatter(persona.Home, 12, 60)
	scatter(nearA, 8, 60)
	scatter(nearB, 8, 60)
	scatter(rare, 2, 60) // below MinPts: correct behaviour is to ignore it
	fmt.Fprintln(cfg.Out, "staying-point detection (DBSCAN, MinPts=3) vs ε — truth: 3 places (two only 350 m apart) + 1 rare place:")
	tb := newTable("ε (m)", "detected", "precision", "recall", "F1")
	for _, eps := range []float64{25, 80, 150, 300, 600} {
		sps := trajectory.ExtractStayPoints(endpoints, trajectory.StayPointParams{EpsMeters: eps, MinPts: 3})
		tp := 0
		matched := make([]bool, len(truth))
		for _, sp := range sps {
			for ti, tpt := range truth {
				if !matched[ti] && geo.Distance(sp.Center, tpt) < 120 {
					matched[ti] = true
					tp++
					break
				}
			}
		}
		precision, recall, f1 := prf(tp, len(sps), len(truth))
		tb.add(fmt.Sprintf("%.0f", eps), fmt.Sprintf("%d", len(sps)),
			fmt.Sprintf("%.2f", precision), fmt.Sprintf("%.2f", recall), fmt.Sprintf("%.2f", f1))
	}
	tb.write(cfg.Out)

	// RDP sweep over one commute trace.
	trace, _, err := e.World.CommuteTrace(persona, e.World.Params.StartDate, true)
	if err != nil {
		return err
	}
	raw := trace.Points()
	fmt.Fprintf(cfg.Out, "\ntrajectory simplification (RDP) on a %d-point commute:\n", len(raw))
	tb2 := newTable("ε (m)", "points kept", "reduction", "max error (m)")
	for _, eps := range []float64{5, 15, 30, 60, 120} {
		simplified := trajectory.RDP(raw, eps)
		var maxErr float64
		for _, p := range raw {
			if d := geo.DistanceToPolyline(p, simplified); d > maxErr {
				maxErr = d
			}
		}
		tb2.add(fmt.Sprintf("%.0f", eps), fmt.Sprintf("%d", len(simplified)),
			fmt.Sprintf("%.1f%%", 100*(1-float64(len(simplified))/float64(len(raw)))),
			fmt.Sprintf("%.1f", maxErr))
		if maxErr > eps+1 {
			return fmt.Errorf("RDP error bound violated: %.1f > ε=%.0f", maxErr, eps)
		}
	}
	tb2.write(cfg.Out)
	return nil
}

func prf(tp, detected, truth int) (precision, recall, f1 float64) {
	if detected > 0 {
		precision = float64(tp) / float64(detected)
	}
	if truth > 0 {
		recall = float64(tp) / float64(truth)
	}
	if precision+recall > 0 {
		f1 = 2 * precision * recall / (precision + recall)
	}
	return
}
