package content

import (
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Features is an item's ranking row, derived once at Add: the one copy
// of its categories the repository keeps, its category vector's norm, a
// coarse publish time and copies of the fields a ranker reads before it
// can reject the item, so a rejected item is never dereferenced. The
// copies stay equal to the item's fields because an item does not change
// once added (Repository.Add). A row does not point at its item (View.Item
// reaches it by its seq), so it is one 64-B cache line with no pointer,
// never scanned by the collector (TestFeaturesRowSize).
type Features struct {
	// SqrtNorm is √Σw² over the category vector, summed in category-NAME
	// order, so its bits do not depend on which ids the categories were
	// interned to; 0 for an item without categories.
	SqrtNorm float64
	Duration time.Duration // Item.Duration
	// ws and ids: the first pairs in name order; an empty slot is (emptyID, 0).
	ws     [rowPairs]float64
	pub    uint32 // pubKey(Item.Published)
	ids    [rowPairs]uint8
	Slots  uint16 // SlotsOf(Item.Duration), saturated at math.MaxUint16
	Kind   Kind   // Item.Kind
	HasGeo bool   // Item.Geo != nil
	spills bool   // the item has pairs past the row, in the spill
}

// A row holds rowPairs pairs. emptyID marks an empty slot, so a pair
// whose id is emptyID or wider is spilled with every pair after it.
const (
	rowPairs = 4
	emptyID  = math.MaxUint8
)

// Slot is the planner's time quantum: a plan of ΔT holds ⌊ΔT/Slot⌋ slots.
const Slot = 15 * time.Second

// SlotsOf returns ⌈d/Slot⌉, the slots an item of duration d takes (0 if d ≤ 0).
func SlotsOf(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return int((d-1)/Slot) + 1
}

// pubKey maps an instant to Unix seconds clamped to 32 bits. The map is
// monotone, so two instants with different keys are ordered as their
// keys are, and only instants that share a key need comparing as
// time.Time: a publish-window cut reads the item itself only within the
// cut's own second (or out at the clamps).
func pubKey(t time.Time) uint32 {
	return uint32(min(max(t.Unix(), 0), math.MaxUint32))
}

// Cut is a publish-time threshold, prepared once per request.
type Cut struct {
	t   time.Time
	key uint32
}

// Since returns the cut that admits items published at or after t.
func Since(t time.Time) Cut { return Cut{t: t, key: pubKey(t)} }

// Admits reports whether the view's item seq was published at or after
// the cut. It reads the item itself only within the cut's own second.
func (c Cut) Admits(v *View, seq int32) bool {
	f := v.At(seq)
	return f.pub > c.key || (f.pub == c.key && !v.items.at(seq).Published.Before(c.t))
}

// Chunk sizes. Add copies items and rows into arrays it allocates whole
// and never grows or moves, so a pointer into one stays valid. A chunk
// is a whole number of 8 KiB pages, which the allocator does not round
// up (TestChunksAreWholePages).
const (
	itemChunk = 1024 // items: 112 B each, 14 pages
	rowChunk  = 1023 // rows: 64 B each, after a 64-B header, 8 pages
)

// itemDir is the directory of a repository's item chunks: chunk k holds
// the items numbered k·itemChunk on. Each chunk is allocated whole and
// written in place, one item at a time at its seq, so neither a chunk
// nor an item a reader can reach is ever written again, and the
// directory only grows at its tail: a View shares it as it shares the
// row directory.
type itemDir []*[itemChunk]Item

// at returns the item numbered seq.
func (d itemDir) at(seq int32) *Item {
	return &d[uint32(seq)/itemChunk][uint32(seq)%itemChunk]
}

// rowsChunk holds rows k·rowChunk on, and the spill an item reaches
// through it (Item.rows); the padding starts each row on a cache line.
type rowsChunk struct {
	spill *sync.Map
	_     [56]byte
	rows  [rowChunk]Features
}

// rowDir is the directory of row chunks, written and shared like itemDir.
type rowDir []*rowsChunk

// at returns the row numbered seq.
func (d rowDir) at(seq int32) *Features {
	return &d[uint32(seq)/rowChunk].rows[uint32(seq)%rowChunk]
}

// pair is a spilled category: its interned id (catNames) and weight.
type pair struct {
	id int32
	w  float64
}

// spilled returns the pairs past the row f, in category-name order. A
// run is stored before its item is published and never written again.
func spilled(spill *sync.Map, f *Features) []pair {
	if !f.spills {
		return nil
	}
	run, _ := spill.Load(f)
	return run.([]pair)
}

// addFeatures copies the item into the repository's item chunk at seq,
// its strings into the repository's arena, and writes its row. Caller
// holds the write lock.
func (r *Repository) addFeatures(it *Item, seq int32) {
	byName := r.byName[:0]
	for cat, w := range it.Weights() {
		byName = append(byName, namedWeight{cat, w})
	}
	slices.SortFunc(byName, func(a, b namedWeight) int { return strings.Compare(a.cat, b.cat) })
	r.byName = byName
	if int(seq) == len(r.items)*itemChunk {
		r.items = append(r.items, new([itemChunk]Item))
	}
	if int(seq) == len(r.rows)*rowChunk {
		r.rows = append(r.rows, &rowsChunk{spill: &r.spill})
	}
	f := r.rows.at(seq)
	f.Duration, f.pub, f.Kind, f.HasGeo = it.Duration, pubKey(it.Published), it.Kind, it.Geo != nil
	f.Slots = uint16(min(SlotsOf(it.Duration), math.MaxUint16))
	var norm float64
	var run []pair
	f.ids = [rowPairs]uint8{emptyID, emptyID, emptyID, emptyID}
	for i, p := range byName {
		norm += p.w * p.w
		if id := intern(p.cat); i < rowPairs && id < emptyID && run == nil {
			f.ids[i], f.ws[i] = uint8(id), p.w
		} else {
			run = append(run, pair{id, p.w})
		}
	}
	if f.spills = run != nil; f.spills {
		r.spill.Store(f, run)
	}
	if norm > 0 {
		f.SqrtNorm = math.Sqrt(norm)
	}
	own := r.items.at(seq)
	*own = *it
	own.ID, own.Title = r.strs.copy(it.ID), r.strs.copy(it.Title)
	own.Program = r.strs.intern(it.Program)
	// Drop the input map, and the row a copy of another repository's
	// item brings: the row written above is the copy's own.
	own.Categories = nil
	own.rows, own.row = r.rows[uint32(seq)/rowChunk], uint16(uint32(seq)%rowChunk)
}

// namedWeight is addFeatures' sort scratch: a category of the item being
// added, by name.
type namedWeight struct {
	cat string
	w   float64
}

// catTable interns category names for every repository in the process:
// a name's id is its index in names. Both tables are replaced, never
// written, so a reader loads one pointer and takes no lock, and an id
// names the same category for the life of the process. The taxonomy is
// interned first, as ids 0–29.
var catTable = newCatTable(Categories)

type catNameTable struct {
	mu    sync.Mutex
	ids   atomic.Pointer[map[string]int32]
	names atomic.Pointer[[]string]
}

func newCatTable(initial []string) *catNameTable {
	t := &catNameTable{}
	ids, names := make(map[string]int32, len(initial)), make([]string, 0, len(initial))
	for _, c := range initial {
		ids[c] = int32(len(names))
		names = append(names, c)
	}
	t.ids.Store(&ids)
	t.names.Store(&names)
	return t
}

// catID returns the interned id of a category name.
func catID(name string) (int32, bool) {
	id, ok := (*catTable.ids.Load())[name]
	return id, ok
}

// catNames returns the interned names, indexed by id.
func catNames() []string { return *catTable.names.Load() }

// intern returns the id of a category, assigning the next one to a name
// not seen before. New names are rare (the taxonomy has 30), so the
// name map is copied whole; the name list only grows at its tail, which
// no reader of an older list indexes.
func intern(cat string) int32 {
	if id, ok := catID(cat); ok {
		return id
	}
	t := catTable
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := catID(cat); ok {
		return id
	}
	old := *t.ids.Load()
	grown := make(map[string]int32, len(old)+1)
	for k, v := range old {
		grown[k] = v
	}
	id := int32(len(old))
	grown[cat] = id
	names := append(*t.names.Load(), cat)
	t.names.Store(&names)
	t.ids.Store(&grown)
	return id
}

// View is a consistent read-only cut of the catalog's ranking state:
// the items present when it was taken and their rows. Taking one costs
// a lock and a copy of three slice headers; using it takes no lock,
// because everything it points at is append-only (Repository). A View
// must not outlive the request it was taken for by long: it pins the
// arrays it saw.
type View struct {
	rows    rowDir
	items   itemDir
	spill   *sync.Map
	n       int
	ordered int
}

// ReadView fills v with the current cut.
func (r *Repository) ReadView(v *View) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	*v = View{rows: r.rows, items: r.items, spill: &r.spill, n: r.n, ordered: r.ordered}
}

// Len returns the number of items in the view; they are numbered
// 0..Len()-1 in insertion order.
func (v *View) Len() int { return v.n }

// At returns the features of item seq, which must be below Len().
func (v *View) At(seq int32) *Features {
	if uint(seq) >= uint(v.n) {
		panic("content: seq past the view")
	}
	return v.rows.at(seq)
}

// Rows returns the rows numbered from seq to the end of seq's chunk or
// of the view: a ranker walks the view chunk by chunk with it.
func (v *View) Rows(seq int32) []Features {
	c, lo := v.rows[uint32(seq)/rowChunk], int(uint32(seq)%rowChunk)
	return c.rows[lo:min(rowChunk, lo+v.n-int(seq))]
}

// Item returns item seq, which must be below Len().
func (v *View) Item(seq int32) *Item {
	if uint(seq) >= uint(v.n) {
		panic("content: seq past the view")
	}
	return v.items.at(seq)
}

// WindowStart returns the first seq the cut can admit: every item
// numbered below it arrived in publish order and was published before
// the cut's second. Items from it on are candidates the caller still
// filters with Cut.Admits — those inside the cut's own second, and the
// late arrivals, which sit past the publish-ordered prefix whatever
// their publish time.
func (v *View) WindowStart(c Cut) int32 {
	return int32(sort.Search(v.ordered, func(i int) bool { return v.rows.at(int32(i)).pub >= c.key }))
}

// Prefs is a listener's weight by category id, 0 for a category the
// listener does not prefer: what Features.Dot multiplies a row by. Its
// zero value gives every category 0.
type Prefs struct {
	// row is by id for the ids a row holds; row[emptyID], an empty
	// slot's, stays 0, so an empty slot adds exactly +0.
	row  [emptyID + 1]float64
	wide map[int32]float64 // by id, for the ids a row's byte cannot hold
}

// Set gives the named category the weight w. A name no item has
// carried has no id and no row names it, so it is skipped.
func (p *Prefs) Set(cat string, w float64) {
	switch id, ok := catID(cat); {
	case ok && id < emptyID:
		p.row[id] = w
	case ok && p.wide == nil:
		p.wide = map[int32]float64{id: w}
	case ok:
		p.wide[id] = w
	}
}

// Dot returns the dot product of the row's pairs with p, added in
// category-name order from +0. A category p does not prefer, and an
// empty slot, adds 0·w, which leaves the sum's bits as they were, so it
// is the sum over the categories both carry. View.SpillDot adds the
// pairs of a row that Spills.
func (f *Features) Dot(p *Prefs) float64 {
	dot := 0.0
	dot += p.row[f.ids[0]] * f.ws[0]
	dot += p.row[f.ids[1]] * f.ws[1]
	dot += p.row[f.ids[2]] * f.ws[2]
	dot += p.row[f.ids[3]] * f.ws[3]
	return dot
}

// Spills reports whether the item has pairs past its row.
func (f *Features) Spills() bool { return f.spills }

// SpillDot adds the products of the pairs past the row f to dot.
func (v *View) SpillDot(dot float64, f *Features, p *Prefs) float64 {
	for _, q := range spilled(v.spill, f) {
		w := p.wide[q.id]
		if q.id < emptyID {
			w = p.row[q.id]
		}
		dot += w * q.w
	}
	return dot
}
