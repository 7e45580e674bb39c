package streamsim

import (
	"testing"
	"time"

	"pphcr/internal/radiodns"
)

var t0 = time.Date(2016, 11, 15, 10, 0, 0, 0, time.UTC)

func fixtureDirectory(t *testing.T) *radiodns.Directory {
	t.Helper()
	d := radiodns.NewDirectory()
	if err := d.AddService(&radiodns.Service{ID: "radio2", Name: "Radio 2", GCC: "5e0", PI: "5202", Frequency: 9100, BitrateKbps: 96}); err != nil {
		t.Fatal(err)
	}
	// Fig 4 schedule: Program1 10:42:30–10:55, Program2 10:55–11:10,
	// Program3 11:10–11:25.
	progs := []struct {
		id    string
		start time.Time
		dur   time.Duration
	}{
		{"p1", t0.Add(42*time.Minute + 30*time.Second), 12*time.Minute + 30*time.Second},
		{"p2", t0.Add(55 * time.Minute), 15 * time.Minute},
		{"p3", t0.Add(70 * time.Minute), 15 * time.Minute},
	}
	for _, p := range progs {
		if err := d.AddProgram(&radiodns.Program{
			ID: p.id, ServiceID: "radio2", Title: "T-" + p.id,
			Start: p.start, Duration: p.dur, Replaceable: p.id != "p1",
		}); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestSourceKindString(t *testing.T) {
	if SourceLive.String() != "live" || SourceClip.String() != "clip" ||
		SourceTimeShifted.String() != "timeshift" || SourceKind(7).String() == "" {
		t.Fatal("source names wrong")
	}
}

func TestBuildTimelinePureLive(t *testing.T) {
	p := &Player{Dir: fixtureDirectory(t), ServiceID: "radio2", BroadcastCapable: true}
	start := t0.Add(45 * time.Minute)
	end := t0.Add(80 * time.Minute)
	segs, err := p.BuildTimeline(start, end, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(segs, start, end); err != nil {
		t.Fatal(err)
	}
	// Live segments split at program boundaries: p1 (→10:55), p2 (→11:10),
	// p3 (→11:20).
	if len(segs) != 3 {
		t.Fatalf("segments = %d, want 3", len(segs))
	}
	if segs[0].Ref != "p1" || segs[1].Ref != "p2" || segs[2].Ref != "p3" {
		t.Fatalf("refs = %v %v %v", segs[0].Ref, segs[1].Ref, segs[2].Ref)
	}
	for _, s := range segs {
		if s.Kind != SourceLive {
			t.Fatalf("non-live segment %+v", s)
		}
	}
}

// TestBuildTimelineLillyScenario reproduces Fig 4: Lilly starts listening
// at 10:42:30; a recommended clip replaces part of the live stream, after
// which the live Program2 plays time-shifted from its schedule start.
func TestBuildTimelineLillyScenario(t *testing.T) {
	p := &Player{Dir: fixtureDirectory(t), ServiceID: "radio2", BroadcastCapable: true}
	start := t0.Add(42*time.Minute + 30*time.Second) // 10:42:30
	end := t0.Add(85 * time.Minute)                  // 11:25

	clipStart := t0.Add(55 * time.Minute) // at the p1→p2 boundary
	inserts := []Insertion{
		{Kind: SourceClip, Ref: "decanter-42", Title: "Decanter: Champagne vs Prosecco",
			At: clipStart, Duration: 8 * time.Minute},
		{Kind: SourceTimeShifted, Ref: "p2", Title: "The rabbit's roar (shifted)",
			At: clipStart.Add(8 * time.Minute), Duration: 15 * time.Minute,
			ShiftedProgramStart: t0.Add(55 * time.Minute)},
	}
	segs, err := p.BuildTimeline(start, end, inserts)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(segs, start, end); err != nil {
		t.Fatal(err)
	}
	// Expect: live p1, clip, time-shifted p2, then live tail.
	if segs[0].Kind != SourceLive || segs[0].Ref != "p1" {
		t.Fatalf("first segment %+v", segs[0])
	}
	var clip, shifted *Segment
	for i := range segs {
		switch segs[i].Kind {
		case SourceClip:
			clip = &segs[i]
		case SourceTimeShifted:
			shifted = &segs[i]
		}
	}
	if clip == nil || shifted == nil {
		t.Fatalf("missing clip/shifted: %+v", segs)
	}
	if clip.Duration() != 8*time.Minute {
		t.Fatalf("clip duration %v", clip.Duration())
	}
	if shifted.Lag != 8*time.Minute {
		t.Fatalf("time-shift lag = %v, want 8m (program started when clip began)", shifted.Lag)
	}
	if got := MaxBufferLag(segs); got != 8*time.Minute {
		t.Fatalf("MaxBufferLag = %v", got)
	}
}

func TestBuildTimelineValidation(t *testing.T) {
	p := &Player{Dir: fixtureDirectory(t), ServiceID: "radio2"}
	start, end := t0, t0.Add(time.Hour)
	if _, err := p.BuildTimeline(end, start, nil); err == nil {
		t.Fatal("inverted session accepted")
	}
	if _, err := p.BuildTimeline(start, end, []Insertion{
		{Kind: SourceClip, At: start.Add(10 * time.Minute), Duration: 0},
	}); err == nil {
		t.Fatal("zero-duration insertion accepted")
	}
	if _, err := p.BuildTimeline(start, end, []Insertion{
		{Kind: SourceClip, At: start.Add(10 * time.Minute), Duration: 10 * time.Minute},
		{Kind: SourceClip, At: start.Add(15 * time.Minute), Duration: 5 * time.Minute},
	}); err == nil {
		t.Fatal("overlapping insertions accepted")
	}
	if _, err := p.BuildTimeline(start, end, []Insertion{
		{Kind: SourceClip, At: start.Add(55 * time.Minute), Duration: 10 * time.Minute},
	}); err == nil {
		t.Fatal("insertion past session end accepted")
	}
	if _, err := p.BuildTimeline(start, end, []Insertion{
		{Kind: SourceTimeShifted, At: start.Add(5 * time.Minute), Duration: 5 * time.Minute,
			ShiftedProgramStart: start.Add(10 * time.Minute)},
	}); err == nil {
		t.Fatal("future time-shift accepted")
	}
}

func TestBuildTimelineNoDirectory(t *testing.T) {
	p := &Player{} // no schedule metadata: one opaque live segment
	start, end := t0, t0.Add(30*time.Minute)
	segs, err := p.BuildTimeline(start, end, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].Kind != SourceLive {
		t.Fatalf("segs = %+v", segs)
	}
	if err := Validate(segs, start, end); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesDefects(t *testing.T) {
	if err := Validate(nil, t0, t0.Add(time.Hour)); err == nil {
		t.Fatal("empty timeline accepted")
	}
	good := []Segment{{Kind: SourceLive, Start: t0, End: t0.Add(time.Hour)}}
	if err := Validate(good, t0, t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	gap := []Segment{
		{Kind: SourceLive, Start: t0, End: t0.Add(20 * time.Minute)},
		{Kind: SourceClip, Start: t0.Add(25 * time.Minute), End: t0.Add(time.Hour)},
	}
	if err := Validate(gap, t0, t0.Add(time.Hour)); err == nil {
		t.Fatal("gap accepted")
	}
	if err := Validate(good, t0, t0.Add(2*time.Hour)); err == nil {
		t.Fatal("short timeline accepted")
	}
	if err := Validate(good, t0.Add(-time.Minute), t0.Add(time.Hour)); err == nil {
		t.Fatal("late start accepted")
	}
}

func TestAccountBandwidth(t *testing.T) {
	dir := fixtureDirectory(t)
	start := t0.Add(45 * time.Minute)
	end := start.Add(30 * time.Minute)
	inserts := []Insertion{
		{Kind: SourceClip, Ref: "c", At: start.Add(10 * time.Minute), Duration: 10 * time.Minute},
	}

	hybrid := &Player{Dir: dir, ServiceID: "radio2", BroadcastCapable: true}
	segs, err := hybrid.BuildTimeline(start, end, inserts)
	if err != nil {
		t.Fatal(err)
	}
	bw := hybrid.AccountBandwidth(segs, 96)
	// 20 min live over broadcast, 10 min clip over unicast.
	wantBroadcast := int64(96 * 1000 / 8 * 20 * 60)
	wantUnicast := int64(96 * 1000 / 8 * 10 * 60)
	if bw.BroadcastBytes != wantBroadcast || bw.UnicastBytes != wantUnicast {
		t.Fatalf("hybrid bw = %+v, want %d/%d", bw, wantBroadcast, wantUnicast)
	}
	if got := bw.UnicastShare(); got < 0.33 || got > 0.34 {
		t.Fatalf("UnicastShare = %v", got)
	}

	ipOnly := &Player{Dir: dir, ServiceID: "radio2", BroadcastCapable: false}
	bw2 := ipOnly.AccountBandwidth(segs, 96)
	if bw2.BroadcastBytes != 0 {
		t.Fatal("IP-only device should not use broadcast")
	}
	if bw2.Total() != bw.Total() {
		t.Fatal("total bytes must not depend on bearer")
	}
	// Default bitrate fallback.
	if got := hybrid.AccountBandwidth(segs, 0); got.Total() != bw.Total() {
		t.Fatal("default bitrate mismatch")
	}
	if (Bandwidth{}).UnicastShare() != 0 {
		t.Fatal("empty bandwidth share should be 0")
	}
}

func BenchmarkBuildTimeline(b *testing.B) {
	d := radiodns.NewDirectory()
	if err := d.AddService(&radiodns.Service{ID: "r", Name: "R", GCC: "5e0", PI: "5200", Frequency: 9000}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := d.AddProgram(&radiodns.Program{
			ID: time.Duration(i).String(), ServiceID: "r", Title: "p",
			Start: t0.Add(time.Duration(i) * 10 * time.Minute), Duration: 10 * time.Minute,
		}); err != nil {
			b.Fatal(err)
		}
	}
	p := &Player{Dir: d, ServiceID: "r", BroadcastCapable: true}
	inserts := []Insertion{
		{Kind: SourceClip, Ref: "c1", At: t0.Add(25 * time.Minute), Duration: 7 * time.Minute},
		{Kind: SourceClip, Ref: "c2", At: t0.Add(40 * time.Minute), Duration: 9 * time.Minute},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.BuildTimeline(t0, t0.Add(2*time.Hour), inserts); err != nil {
			b.Fatal(err)
		}
	}
}
