// Package feedback implements the feedbacks DB of the paper's user
// management component (Fig 3, §1.3): content navigation logs with the
// implicit and explicit ratings the client app sends — periodic positive
// signals while the listener stays on a content, negative signals on
// skip, and explicit like/dislike button presses.
//
// Beyond the raw log, the store maintains an *incremental preference
// index*: per user, the exponentially decayed category vector the
// recommender consumes, folded forward on every Append so that a
// preference read costs O(categories) instead of O(events). The raw log
// is kept for auditing (ByUser) and as the replay oracle, and is bounded
// by periodic compaction (Compact), which folds events older than a
// horizon into a per-user baseline vector — the feedback analogue of the
// paper's tracking compaction.
//
// The log holds each event as a 16 B record with no pointer in it, not
// as the 72 B Event: the instant as Unix nanoseconds, the item as a
// number and the kind in one byte. The number is the item's seq in the
// content repository (ShareCatalog) when the event is about a catalog
// item and carries the item's own categories, or none (nil Categories
// means the catalog item's own); the item's ID string and categories are
// then the catalog's, read back by seq. Any other event — about an item
// the catalog does not hold, or with categories that differ from the
// item's — takes a negative number naming an entry of the user's side
// table, which holds its ID and its categories as a Vector. The user is
// the key of the state the record sits in. Event values are built from
// records only on the way out (Events and ByUser, with At in UTC and a
// map of their own; Snapshot writes the same JSON with no map built).
//
// The rest of a listener's state is flat too. The preference index and
// the compaction baseline are Vectors, (category, weight) pairs in
// category-name order, and the skip set is an ascending slice of catalog
// seqs, published copy-on-write; instants are Unix nanoseconds. So no
// write and no plan builds a map, and a listener costs bytes in
// proportion to what they touched.
package feedback

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pphcr/internal/content"
)

// Kind is the feedback event type.
type Kind int

// Feedback kinds, mirroring the client actions in §1.3.
const (
	// ImplicitListen is the periodic positive signal sent while the user
	// keeps listening to a content.
	ImplicitListen Kind = iota
	// Skip is the implicit negative signal generated by a skip action.
	Skip
	// Like and Dislike are the explicit buttons.
	Like
	Dislike
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case ImplicitListen:
		return "listen"
	case Skip:
		return "skip"
	case Like:
		return "like"
	case Dislike:
		return "dislike"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Weight is the preference contribution of one event of this kind.
// Explicit signals outweigh implicit ones; skips hurt more than a
// background listen helps, because a skip is a deliberate act.
func (k Kind) Weight() float64 {
	switch k {
	case ImplicitListen:
		return 0.3
	case Skip:
		return -0.6
	case Like:
		return 1.0
	case Dislike:
		return -1.0
	default:
		return 0
	}
}

// Event is one feedback record.
type Event struct {
	UserID string
	ItemID string
	Kind   Kind
	At     time.Time
	// Categories is the category distribution of the item the feedback
	// refers to, denormalized here so preference aggregation does not
	// need the content repository. Nil, for an item the catalog holds
	// (ShareCatalog), means that item's own categories.
	Categories map[string]float64
}

// record is how the log keeps one event (see the package comment).
type record struct {
	at   int64 // Unix nanoseconds
	seq  int32 // the catalog item's seq if ≥ 0, else ^i for the user's side[i]
	kind uint8
}

func (r *record) time() time.Time { return time.Unix(0, r.at) }

func (r *record) weight() float64 { return Kind(r.kind).Weight() }

// sideItem is the item of an event the catalog cannot stand for: the
// ID string (the catalog item's own when it has one) and the event's
// categories, empty (not nil) where the event carried none.
type sideItem struct {
	id   string
	cats Vector
}

// weights is the category distribution of an event's item: a catalog
// item's own (item non-nil), or a side entry's.
type weights struct {
	item *content.Item
	side Vector
}

// each calls f with every category and weight.
func (w weights) each(f func(cat string, x float64)) {
	if w.item != nil {
		for c, x := range w.item.Weights() {
			f(c, x)
		}
		return
	}
	for _, p := range w.side {
		f(p.Cat, p.W)
	}
}

// item returns the ID string and categories of r's event, which belongs
// to st.
func (s *Store) item(st *userState, r *record) (string, weights) {
	if r.seq < 0 {
		it := &st.side[^r.seq]
		return it.id, weights{side: it.cats}
	}
	it := s.itemAt(r.seq)
	return it.ID, weights{item: it}
}

// events builds the API values of st's log, which belongs to userID,
// each with a map of its own. No map is nil: an event that carried no
// categories about an item the catalog did not hold reads back as an
// empty map, which means no categories whatever the catalog holds when
// it is restored.
func (s *Store) events(userID string, st *userState) []Event {
	out := make([]Event, len(st.events))
	for i := range st.events {
		r := &st.events[i]
		id, ws := s.item(st, r)
		var m map[string]float64
		if ws.item != nil {
			m = maps.Collect(ws.item.Weights())
		} else {
			m = ws.side.Map()
		}
		out[i] = Event{UserID: userID, ItemID: id, Kind: Kind(r.kind), At: r.time().UTC(), Categories: m}
	}
	return out
}

// DefaultShards is the default shard count of the store. Per-user state
// is striped across shards by a hash of the user ID so concurrent
// appends and reads for different users do not contend on one mutex.
const DefaultShards = 32

// userState is everything the store holds for one listener: what every
// listener with feedback has, flat, and a pointer to what few have.
type userState struct {
	// events is the live (post-compaction) tail of the user's log, in
	// insertion order.
	events []record
	// side holds the items of the events in events whose seq is
	// negative, one entry each, in the order of those events.
	side []sideItem
	// vec is the incrementally maintained preference index: the decayed
	// category vector of ALL the user's feedback (including events already
	// folded into the baseline), valued at the instant at (Unix ns).
	vec Vector
	at  int64
	// skipped is the incrementally maintained set of catalog items the
	// user skipped or disliked, as their seqs in ascending order — the
	// replacement-eligibility filter. Unlike a log scan it survives
	// compaction. It is published copy-on-write: a change replaces the
	// slice and never writes the one it replaces, so SkippedItems hands
	// it out as is.
	skipped []int32
	rare    *rareState
}

// rareState is the part of a listener's state most listeners never set.
type rareState struct {
	// base is the compaction baseline: the decayed contribution of the
	// events truncated from the log, valued at baseAt (Unix ns). It
	// exists so replay reads and snapshots stay correct after the log is
	// cut.
	base      Vector
	baseAt    int64
	baseCount int
	// skippedIDs are the skipped or disliked items the catalog did not
	// hold when the skip was logged, by ID in ascending order; published
	// copy-on-write as skipped is.
	skippedIDs []string
}

// noInstant is a state's at before any event is folded: every instant
// a record holds is at or after it.
const noInstant = math.MinInt64

func (st *userState) updated() time.Time { return time.Unix(0, st.at) }

// extra returns st's rare part, allocating it on first use.
func (st *userState) extra() *rareState {
	if st.rare == nil {
		st.rare = new(rareState)
	}
	return st.rare
}

type shard struct {
	mu    sync.RWMutex
	users map[string]*userState
}

// Store is the thread-safe feedbacks DB with its incremental preference
// index. Create with NewStore.
type Store struct {
	halfLife time.Duration
	shards   []shard
	mask     uint32
	// seqOf and itemAt, when set, read the catalog: an item's seq by its
	// ID, and the item by its seq (see kept).
	seqOf  func(itemID string) (int32, bool)
	itemAt func(seq int32) *content.Item

	live            atomic.Int64 // events currently in the logs
	appends         atomic.Int64
	indexReads      atomic.Int64
	replayReads     atomic.Int64
	compactions     atomic.Int64
	eventsCompacted atomic.Int64
}

// NewStore returns an empty store whose preference index decays with the
// default half-life (DefaultPreferenceParams().HalfLife).
func NewStore() *Store {
	return NewStoreHalfLife(DefaultPreferenceParams().HalfLife)
}

// NewStoreHalfLife returns an empty store whose incremental index decays
// with the given half-life. Preference reads requesting a different
// half-life fall back to log replay.
func NewStoreHalfLife(halfLife time.Duration) *Store {
	if halfLife <= 0 {
		halfLife = DefaultPreferenceParams().HalfLife
	}
	n := DefaultShards // power of two
	s := &Store{halfLife: halfLife, shards: make([]shard, n), mask: uint32(n - 1)}
	for i := range s.shards {
		s.shards[i].users = make(map[string]*userState)
	}
	return s
}

// ShareCatalog installs the catalog: seqOf finds an item's seq by its
// ID, and itemAt returns the item by its seq. A seq must name the same
// item for the store's life and that item must never change (the content
// repository's contract: it numbers items in insertion order, never
// reuses a number and never changes an added item). An event about a
// catalog item whose categories equal the item's, or are nil, is then
// logged as the seq alone, so a node keeps one copy of each ID and
// category vector however much feedback it logs, and every other event
// about a catalog item holds the item's ID string. The store calls
// itemAt while it holds a shard lock, so neither function may call into
// the store. Call it before the first Append.
func (s *Store) ShareCatalog(seqOf func(itemID string) (int32, bool), itemAt func(seq int32) *content.Item) {
	s.seqOf, s.itemAt = seqOf, itemAt
}

// FNV-1a, inlined: shardFor sits on every append and preference read
// and must not allocate (hash/fnv costs a hasher plus a byte slice per
// call) — same idiom as internal/plancache.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

func fnvString(s string) uint32 {
	h := uint32(fnvOffset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= fnvPrime32
	}
	return h
}

func (s *Store) shardFor(userID string) *shard {
	return &s.shards[fnvString(userID)&s.mask]
}

// decayFactor is 2^(-d/halfLife), the survival fraction of an influence
// after d has elapsed.
func decayFactor(d, halfLife time.Duration) float64 {
	if d <= 0 {
		return 1
	}
	return math.Exp2(-d.Hours() / halfLife.Hours())
}

// flatten returns m as a Vector of its own.
func flatten(m map[string]float64) Vector {
	v := make(Vector, 0, len(m))
	for c, w := range m {
		v = append(v, Pref{Cat: c, W: w})
	}
	slices.SortFunc(v, func(a, b Pref) int { return strings.Compare(a.Cat, b.Cat) })
	return v
}

// kept returns how the store keeps e's item. For a catalog item whose
// categories equal e's bit for bit, or which e gives none (nil), item
// is the catalog's: the record names it by its seq, and its ID and
// categories are the item's own. Otherwise item is nil and side is the
// side-table entry: the catalog item's own ID string, or e's for an item
// the catalog does not hold, and e's categories as a Vector, so the
// store never aliases caller-owned memory. seq is the item's catalog
// seq, or -1 for an item the catalog does not hold. It is the one place
// that choice is made; Append (and through it every live, replayed,
// replicated and restored event) calls it before taking a shard lock.
func (s *Store) kept(e Event) (item *content.Item, side sideItem, seq int32) {
	if s.seqOf != nil {
		if seq, ok := s.seqOf(e.ItemID); ok {
			it := s.itemAt(seq)
			if e.Categories == nil || sameWeights(e.Categories, it) {
				return it, sideItem{}, seq
			}
			return nil, sideItem{it.ID, flatten(e.Categories)}, seq
		}
	}
	return nil, sideItem{e.ItemID, flatten(e.Categories)}, -1
}

// sameWeights reports whether m holds exactly the item's categories,
// each weight with the same bits.
func sameWeights(m map[string]float64, it *content.Item) bool {
	n := 0
	for c, w := range it.Weights() {
		if x, ok := m[c]; !ok || math.Float64bits(x) != math.Float64bits(w) {
			return false
		}
		n++
	}
	return n == len(m)
}

// fold advances the index vector to r's instant (decaying the
// accumulated vector) and adds r's contribution, ws being its item's
// categories. Records older than the index's instant are folded at
// their already-decayed weight instead — exponential decay makes either
// order exact.
func (st *userState) fold(r *record, ws weights, halfLife time.Duration) {
	w := r.weight()
	switch {
	case r.at > st.at:
		st.vec.scale(decayFactor(r.time().Sub(st.updated()), halfLife))
		st.at = r.at
	case r.at < st.at:
		w *= decayFactor(st.updated().Sub(r.time()), halfLife)
	}
	ws.each(func(c string, share float64) {
		st.vec = st.vec.add(c, w*share, true)
	})
}

// skip adds the item of a skip or dislike to the user's skip set: by
// its catalog seq, or by id where the catalog does not hold it.
func (st *userState) skip(seq int32, id string) {
	if seq >= 0 {
		if i, ok := slices.BinarySearch(st.skipped, seq); !ok {
			st.skipped = inserted(st.skipped, i, seq)
		}
		return
	}
	rs := st.extra()
	if i, ok := slices.BinarySearch(rs.skippedIDs, id); !ok {
		rs.skippedIDs = inserted(rs.skippedIDs, i, id)
	}
}

// ErrInstantRange is Append's refusal of an instant outside what Unix
// nanoseconds hold (years 1678–2262), which a record cannot store.
var ErrInstantRange = errors.New("feedback: instant outside the Unix-nanosecond range")

// Append records an event and folds it into the user's preference index.
// It refuses a kind other than the four defined ones and an instant
// outside what Unix nanoseconds hold (ErrInstantRange). The store keeps
// the catalog item's categories or a flat copy of the event's (kept),
// never the caller's map itself, so callers may reuse or mutate their
// map freely.
func (s *Store) Append(e Event) error {
	if err := s.CheckAppend(e); err != nil {
		return err
	}
	r := record{at: e.At.UnixNano(), kind: uint8(e.Kind)}
	item, side, seq := s.kept(e)
	sh := s.shardFor(e.UserID)
	sh.mu.Lock()
	st := sh.users[e.UserID]
	if st == nil {
		st = &userState{at: r.at}
		sh.users[e.UserID] = st
	}
	r.seq = seq
	id, ws := side.id, weights{item: item, side: side.cats}
	if item != nil {
		id = item.ID
	} else {
		r.seq = ^int32(len(st.side))
		st.side = append(st.side, side)
	}
	st.events = append(st.events, r)
	st.fold(&r, ws, s.halfLife)
	if (e.Kind == Skip || e.Kind == Dislike) && id != "" {
		st.skip(seq, id)
	}
	sh.mu.Unlock()
	s.live.Add(1)
	s.appends.Add(1)
	return nil
}

// CheckAppend returns the error Append would return, and records nothing.
func (s *Store) CheckAppend(e Event) error {
	if e.UserID == "" {
		return fmt.Errorf("feedback: UserID required")
	}
	if e.Kind < ImplicitListen || e.Kind > Dislike {
		return fmt.Errorf("feedback: unknown kind %d", int(e.Kind))
	}
	if !time.Unix(0, e.At.UnixNano()).Equal(e.At) {
		return fmt.Errorf("%w: %v", ErrInstantRange, e.At)
	}
	return nil
}

// Len returns the number of events currently held in the logs (events
// folded away by compaction no longer count).
func (s *Store) Len() int {
	return int(s.live.Load())
}

// empty reports whether the store holds no per-user state at all, logs
// or baselines (Restore's precondition).
func (s *Store) empty() bool {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n := len(sh.users)
		sh.mu.RUnlock()
		if n > 0 {
			return false
		}
	}
	return true
}

// Events returns the user's live events in insertion order, At in UTC,
// each Categories a map the caller owns.
func (s *Store) Events(userID string) []Event {
	sh := s.shardFor(userID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if st := sh.users[userID]; st != nil && len(st.events) > 0 {
		return s.events(userID, st)
	}
	return nil
}

// ByUser is Events: the user's live events, which the caller owns.
func (s *Store) ByUser(userID string) []Event { return s.Events(userID) }

// Logged is one live event of a user's log without its categories.
type Logged struct {
	ItemID string
	Kind   Kind
	At     time.Time
}

// Log returns the user's live events in insertion order without their
// categories, which the caller owns: a listing that, unlike Events,
// builds no map, and allocates only the slice it returns.
func (s *Store) Log(userID string) []Logged {
	sh := s.shardFor(userID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	st := sh.users[userID]
	if st == nil || len(st.events) == 0 {
		return nil
	}
	out := make([]Logged, len(st.events))
	for i := range st.events {
		r := &st.events[i]
		id, _ := s.item(st, r)
		out[i] = Logged{ItemID: id, Kind: Kind(r.kind), At: r.time().UTC()}
	}
	return out
}

// PreferenceParams tunes preference aggregation.
type PreferenceParams struct {
	// HalfLife is the exponential decay half-life of an event's
	// influence. Older tastes fade; 14 days matches the demo's horizon.
	HalfLife time.Duration
	// Seed is the cold-start prior: the categories the profile declares
	// an interest in, each weighing 1/len(Seed) (a category listed twice
	// weighs twice), blended in with SeedWeight total mass. The store
	// only reads it.
	Seed       []string
	SeedWeight float64
}

// DefaultPreferenceParams returns the experiment defaults.
func DefaultPreferenceParams() PreferenceParams {
	return PreferenceParams{HalfLife: 14 * 24 * time.Hour, SeedWeight: 1.0}
}

// seeded writes the blended seed prior into dst[:0].
func (p *PreferenceParams) seeded(dst Vector) Vector {
	dst = dst[:0]
	if len(p.Seed) == 0 {
		return dst
	}
	w := 1.0 / float64(len(p.Seed))
	for _, c := range p.Seed {
		dst = dst.add(c, w, false)
	}
	dst.scale(p.SeedWeight)
	return dst
}

// Preferences aggregates the user's feedback into a category preference
// vector at instant now and writes it into dst[:0], in category-name
// order: each event contributes weight(kind) × 2^(-age/halfLife) ×
// itemCategoryShare to each of its item's categories, plus the seed
// prior. The result can contain negative values (disliked categories);
// the recommender's cosine handles them naturally. It allocates only
// when dst is too short.
//
// When the requested half-life matches the store's index half-life and
// now is not before the user's last event, the read is served from the
// incremental index in O(categories), independent of the log length.
// Other reads fall back to replaying baseline + log.
func (s *Store) Preferences(dst Vector, userID string, now time.Time, params PreferenceParams) Vector {
	if params.HalfLife <= 0 {
		params.HalfLife = DefaultPreferenceParams().HalfLife
	}
	sh := s.shardFor(userID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	st := sh.users[userID]
	if st == nil {
		return params.seeded(dst)
	}
	if params.HalfLife == s.halfLife && !now.Before(st.updated()) {
		dst = params.seeded(slices.Grow(dst[:0], len(params.Seed)+len(st.vec)))
		s.indexReads.Add(1)
		return dst.addScaled(st.vec, decayFactor(now.Sub(st.updated()), params.HalfLife))
	}
	s.replayReads.Add(1)
	return s.replay(params.seeded(dst), st, now, params)
}

// PreferencesReplay computes the preference vector by replaying the
// user's baseline and log event by event — the O(events) oracle the
// incremental index is verified against (and benchmarked against).
func (s *Store) PreferencesReplay(userID string, now time.Time, params PreferenceParams) map[string]float64 {
	if params.HalfLife <= 0 {
		params.HalfLife = DefaultPreferenceParams().HalfLife
	}
	out := params.seeded(nil)
	sh := s.shardFor(userID)
	sh.mu.RLock()
	if st := sh.users[userID]; st != nil {
		out = s.replay(out, st, now, params)
	}
	sh.mu.RUnlock()
	s.replayReads.Add(1)
	return out.Map()
}

// replay adds the user's baseline and per-event contributions at
// instant now to out. Ages clamp at zero: an event (or baseline) "from
// the future" — clock skew — contributes at full weight, never
// amplified. The baseline was folded with the index half-life; for
// reads requesting a different half-life its contribution is an
// approximation (the truncated events cannot be re-decayed), exact
// before any compaction.
func (s *Store) replay(out Vector, st *userState, now time.Time, params PreferenceParams) Vector {
	if rs := st.rare; rs != nil && len(rs.base) > 0 {
		age := max(now.Sub(time.Unix(0, rs.baseAt)), 0)
		out = out.addScaled(rs.base, decayFactor(age, params.HalfLife))
	}
	for i := range st.events {
		r := &st.events[i]
		age := max(now.Sub(r.time()), 0)
		w := r.weight() * decayFactor(age, params.HalfLife)
		_, ws := s.item(st, r)
		ws.each(func(c string, share float64) {
			out = out.add(c, w*share, false)
		})
	}
	return out
}

// Compact folds the user's events older than now−horizon into the
// baseline vector and truncates them from the log — the feedback
// analogue of the paper's tracking compaction. The incremental index is
// untouched (it already contains every event); only the replayable tail
// shrinks, so memory stops growing with history. It returns the number
// of events folded away; a cut outside what Unix nanoseconds hold folds
// none.
func (s *Store) Compact(userID string, now time.Time, horizon time.Duration) int {
	return s.compact(userID, now, horizon, true)
}

// Foldable returns what Compact would return, and folds nothing.
func (s *Store) Foldable(userID string, now time.Time, horizon time.Duration) int {
	return s.compact(userID, now, horizon, false)
}

// compact counts the events Compact folds, and folds them if fold is set.
func (s *Store) compact(userID string, now time.Time, horizon time.Duration, fold bool) int {
	if horizon <= 0 {
		return 0
	}
	cutAt := now.Add(-horizon)
	if !time.Unix(0, cutAt.UnixNano()).Equal(cutAt) {
		return 0
	}
	cut := cutAt.UnixNano()
	sh := s.shardFor(userID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.users[userID]
	if st == nil {
		return 0
	}
	rs := st.rare
	if rs != nil && rs.baseCount > 0 && cut < rs.baseAt {
		// A cut before the existing baseline would need to *amplify* the
		// baseline to re-value it; never move the baseline backwards.
		return 0
	}
	folded, side := 0, 0
	for i := range st.events {
		switch r := &st.events[i]; {
		case r.at < cut:
			folded++
		case r.seq < 0:
			side++
		}
	}
	if folded == 0 || !fold {
		return folded
	}
	rs = st.extra()
	// Re-value the previous baseline at the new cut, then fold the old
	// events on top (each decayed from its own instant to the cut).
	if d := decayFactor(cutAt.Sub(time.Unix(0, rs.baseAt)), s.halfLife); rs.baseCount > 0 && d != 1 {
		rs.base.scale(d)
	}
	// The survivors, and the side entries only they name, move to
	// slices of exactly their size: an entry goes with its record.
	keep := make([]record, 0, len(st.events)-folded)
	var keepSide []sideItem
	if side > 0 {
		keepSide = make([]sideItem, 0, side)
	}
	for i := range st.events {
		r := st.events[i]
		if r.at >= cut {
			if r.seq < 0 {
				keepSide = append(keepSide, st.side[^r.seq])
				r.seq = ^int32(len(keepSide) - 1)
			}
			keep = append(keep, r)
			continue
		}
		w := r.weight() * decayFactor(cutAt.Sub(r.time()), s.halfLife)
		_, ws := s.item(st, &r)
		ws.each(func(c string, share float64) {
			rs.base = rs.base.add(c, w*share, true)
		})
	}
	rs.baseAt = cut
	rs.baseCount += folded
	st.events, st.side = keep, keepSide
	s.live.Add(int64(-folded))
	s.eventsCompacted.Add(int64(folded))
	s.compactions.Add(1)
	return folded
}

// restoreUser installs a restored baseline (and compaction-surviving
// skip set) and reseeds the index from it; the caller then Appends the
// user's surviving events on top. It refuses a baseline instant outside
// what Unix nanoseconds hold.
func (s *Store) restoreUser(userID string, base map[string]float64, baseAt time.Time, baseCount int, skipped []string) error {
	if (len(base) == 0 || baseCount == 0) && len(skipped) == 0 {
		return nil
	}
	st := &userState{at: noInstant}
	if baseCount > 0 {
		at := baseAt.UnixNano()
		if !time.Unix(0, at).Equal(baseAt) {
			return fmt.Errorf("%w: baseline at %v", ErrInstantRange, baseAt)
		}
		rs := st.extra()
		for c, w := range base {
			rs.base = rs.base.add(c, w, true)
		}
		st.vec = slices.Clone(rs.base)
		st.at, rs.baseAt, rs.baseCount = at, at, baseCount
	}
	for _, id := range skipped {
		seq := int32(-1)
		if s.seqOf != nil {
			if n, ok := s.seqOf(id); ok {
				seq = n
			}
		}
		st.skip(seq, id)
	}
	sh := s.shardFor(userID)
	sh.mu.Lock()
	sh.users[userID] = st
	sh.mu.Unlock()
	s.eventsCompacted.Add(int64(baseCount))
	return nil
}

// Stats snapshots the store counters, exported on /stats so the
// preference-index behavior (index hits vs replay fallbacks, compaction
// progress, live log size) is observable in production.
type Stats struct {
	Users           int   `json:"users"`
	LiveEvents      int64 `json:"live_events"`
	CompactedEvents int64 `json:"compacted_events"` // folded into baselines
	Appends         int64 `json:"appends"`
	IndexReads      int64 `json:"index_reads"`
	ReplayReads     int64 `json:"replay_reads"`
	Compactions     int64 `json:"compactions"`
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	users := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		users += len(sh.users)
		sh.mu.RUnlock()
	}
	return Stats{
		Users:           users,
		LiveEvents:      s.live.Load(),
		CompactedEvents: s.eventsCompacted.Load(),
		Appends:         s.appends.Load(),
		IndexReads:      s.indexReads.Load(),
		ReplayReads:     s.replayReads.Load(),
		Compactions:     s.compactions.Load(),
	}
}

// Skips is a listener's skip set as the store publishes it: the catalog
// seqs of the items they skipped or disliked, ascending, and the IDs,
// ascending, of those the catalog did not hold when the skip was logged.
// Both slices are shared: callers MUST treat them as read-only.
type Skips struct {
	Seqs []int32
	IDs  []string
}

// Has reports whether the set holds the catalog item numbered seq, whose
// ID is id: an integer probe, and a string one only for a listener who
// skipped an item the catalog did not hold.
func (k Skips) Has(seq int32, id string) bool {
	if _, ok := slices.BinarySearch(k.Seqs, seq); ok {
		return true
	}
	if len(k.IDs) == 0 {
		return false
	}
	_, ok := slices.BinarySearch(k.IDs, id)
	return ok
}

// SkippedItems returns the set of items the user skipped or disliked —
// maintained incrementally on Append (no log scan) and preserved across
// compaction. It allocates nothing: the slices are the store's own,
// which a change replaces rather than writes (copy-on-write).
func (s *Store) SkippedItems(userID string) Skips {
	sh := s.shardFor(userID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	st := sh.users[userID]
	if st == nil {
		return Skips{}
	}
	k := Skips{Seqs: st.skipped}
	if st.rare != nil {
		k.IDs = st.rare.skippedIDs
	}
	return k
}

// skippedIDs returns every ID in st's skip set, ascending.
func (s *Store) skippedIDs(st *userState) []string {
	var ids []string
	if st.rare != nil {
		ids = st.rare.skippedIDs
	}
	if len(st.skipped) == 0 {
		return ids
	}
	out := make([]string, 0, len(st.skipped)+len(ids))
	for _, seq := range st.skipped {
		out = append(out, s.itemAt(seq).ID)
	}
	// An ID skipped while the catalog did not hold it and again since
	// the catalog took it is in both parts.
	out = append(out, ids...)
	slices.Sort(out)
	return slices.Compact(out)
}
