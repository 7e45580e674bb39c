package obs

import (
	"context"
	"sync"
	"time"
)

// maxSpans bounds a trace's span array. A planning request touches at
// most: barrier wait, cache lookup, five pipeline stages, WAL ticket
// wait, and a few notes — 16 leaves headroom without making the pooled
// object heavy.
const maxSpans = 16

// Span is one timed step inside a request, with its start offset from
// the request start. Offsets rather than absolute times keep the JSON
// view self-contained and diffable.
type Span struct {
	Name    string
	StartNs int64
	DurNs   int64
}

// Trace is a per-request span recorder. All methods are nil-safe: a
// nil *Trace no-ops, so instrumentation points in the pipeline and the
// write paths never branch on "is tracing on". A Trace is owned by one
// request goroutine; it is not safe for concurrent use.
type Trace struct {
	Op     string
	User   string
	Source string // plan source (warm/cold/...) when the op produces a plan
	Start  time.Time
	spans  [maxSpans]Span
	n      int
	notes  [4]string
	nNotes int
}

var tracePool = sync.Pool{New: func() interface{} { return new(Trace) }}

// NewTrace fetches a pooled trace and stamps its start. Callers must
// hand the trace to exactly one of Ring.Offer (which recycles it) or
// ReleaseTrace.
//
//pphcr:allow poolescape ownership transfers to the caller, who must Offer or ReleaseTrace it back
func NewTrace(op, user string) *Trace {
	t := tracePool.Get().(*Trace)
	t.Op = op
	t.User = user
	t.Source = ""
	t.Start = time.Now()
	t.n = 0
	t.nNotes = 0
	return t
}

// ReleaseTrace returns a trace to the pool. Safe on nil.
func ReleaseTrace(t *Trace) {
	if t != nil {
		tracePool.Put(t)
	}
}

// StartSpan returns the current offset from the trace start, to be
// passed to EndSpan. On a nil trace it returns 0 and EndSpan no-ops,
// so the pair costs one nil check each on the untraced path.
func (t *Trace) StartSpan() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.Start))
}

// EndSpan records a span that began at the offset StartSpan returned.
// Once the span array is full, further spans are dropped (the first
// spans of a request are the structurally interesting ones).
func (t *Trace) EndSpan(name string, startOffsetNs int64) {
	if t == nil || t.n >= maxSpans {
		return
	}
	t.spans[t.n] = Span{Name: name, StartNs: startOffsetNs, DurNs: int64(time.Since(t.Start)) - startOffsetNs}
	t.n++
}

// AddSpan records an externally timed span (e.g. a pipeline stage the
// caller also times into its histogram).
func (t *Trace) AddSpan(name string, startOffsetNs, durNs int64) {
	if t == nil || t.n >= maxSpans {
		return
	}
	t.spans[t.n] = Span{Name: name, StartNs: startOffsetNs, DurNs: durNs}
	t.n++
}

// Note attaches a short annotation (e.g. "cache:hit", "gate:skip").
func (t *Trace) Note(s string) {
	if t == nil || t.nNotes >= len(t.notes) {
		return
	}
	t.notes[t.nNotes] = s
	t.nNotes++
}

// SetSource records the plan source once it is known.
func (t *Trace) SetSource(s string) {
	if t != nil {
		t.Source = s
	}
}

// SpanView is the JSON rendering of a Span (microsecond units, matching
// the rest of the stats surface).
type SpanView struct {
	Name        string  `json:"name"`
	StartMicros float64 `json:"start_micros"`
	DurMicros   float64 `json:"dur_micros"`
}

// TraceView is the JSON rendering of a completed trace in the
// slow-request ring.
type TraceView struct {
	Op          string     `json:"op"`
	User        string     `json:"user,omitempty"`
	Source      string     `json:"source,omitempty"`
	Start       time.Time  `json:"start"`
	TotalMicros float64    `json:"total_micros"`
	Spans       []SpanView `json:"spans"`
	Notes       []string   `json:"notes,omitempty"`
}

func (t *Trace) view(totalNs int64) TraceView {
	v := TraceView{
		Op:          t.Op,
		User:        t.User,
		Source:      t.Source,
		Start:       t.Start,
		TotalMicros: float64(totalNs) / 1e3,
		Spans:       make([]SpanView, t.n),
	}
	for i := 0; i < t.n; i++ {
		v.Spans[i] = SpanView{
			Name:        t.spans[i].Name,
			StartMicros: float64(t.spans[i].StartNs) / 1e3,
			DurMicros:   float64(t.spans[i].DurNs) / 1e3,
		}
	}
	if t.nNotes > 0 {
		v.Notes = append(v.Notes, t.notes[:t.nNotes]...)
	}
	return v
}

// TraceRing keeps the last N requests slower than a threshold, rendered
// to JSON views at offer time so the pooled Trace can be recycled
// immediately. The mutex is only taken for over-threshold requests —
// by construction a rare event — so the ring costs the hot path one
// duration compare.
type TraceRing struct {
	mu      sync.Mutex
	views   []TraceView
	next    int
	filled  bool
	thresh  time.Duration
	dropped int64
}

// NewTraceRing creates a ring holding up to capacity slow traces.
func NewTraceRing(capacity int, threshold time.Duration) *TraceRing {
	if capacity <= 0 {
		capacity = 64
	}
	return &TraceRing{views: make([]TraceView, capacity), thresh: threshold}
}

// Threshold returns the ring's slow threshold.
func (r *TraceRing) Threshold() time.Duration { return r.thresh }

// Offer finishes a trace: if its total duration meets the threshold it
// is rendered into the ring, and the trace is recycled either way.
// Safe on a nil ring or nil trace (the trace is still recycled).
func (r *TraceRing) Offer(t *Trace) {
	if t == nil {
		return
	}
	if r == nil {
		tracePool.Put(t)
		return
	}
	total := int64(time.Since(t.Start))
	if total < int64(r.thresh) {
		tracePool.Put(t)
		return
	}
	v := t.view(total)
	tracePool.Put(t)
	r.mu.Lock()
	r.views[r.next] = v
	r.next++
	if r.next == len(r.views) {
		r.next = 0
		r.filled = true
	}
	r.mu.Unlock()
}

// Snapshot returns the ring's traces, newest first.
func (r *TraceRing) Snapshot() []TraceView {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.filled {
		n = len(r.views)
	}
	out := make([]TraceView, 0, n)
	for i := 0; i < n; i++ {
		idx := r.next - 1 - i
		if idx < 0 {
			idx += len(r.views)
		}
		out = append(out, r.views[idx])
	}
	return out
}

// Request-scoped user id, carried on the request context so the access
// log can report which user a plan/feedback call concerned without the
// handlers knowing about logging.

type requestUserKey struct{}

type requestUser struct{ id string }

// WithRequestUser installs a mutable user-id slot on the context; the
// logging middleware does this once per request.
func WithRequestUser(ctx context.Context) context.Context {
	return context.WithValue(ctx, requestUserKey{}, &requestUser{})
}

// NoteRequestUser records the user a request concerned, if a slot is
// present (no-op otherwise — handlers work without the middleware).
func NoteRequestUser(ctx context.Context, id string) {
	if u, ok := ctx.Value(requestUserKey{}).(*requestUser); ok {
		u.id = id
	}
}

// RequestUser returns the user id noted on the context, if any.
func RequestUser(ctx context.Context) string {
	if u, ok := ctx.Value(requestUserKey{}).(*requestUser); ok {
		return u.id
	}
	return ""
}
