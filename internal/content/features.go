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

// Features is what ranking needs of one item besides the item itself,
// derived once at Add: its category vector's norm, a coarse publish time
// and copies of the fields a ranker reads before it can reject the item,
// so a rejected item is never dereferenced. The weights themselves live
// in the postings (and beside the item, as its pairs). The copies stay
// equal to the item's fields because an item does not change once added
// (Repository.Add).
//
// A row does not point at its item: the item is reached by its seq
// (View.Item), so a row is 24 B and pointer-free, and the rows are never
// scanned by the collector (TestFeaturesRowSize).
type Features struct {
	// SqrtNorm is √Σw² over the category vector, summed in category-NAME
	// order, so its bits do not depend on which ids the categories were
	// interned to; 0 for an item without categories.
	SqrtNorm float64
	Duration time.Duration // Item.Duration
	pub      uint32        // pubKey(Item.Published)
	Kind     Kind          // Item.Kind
	HasGeo   bool          // Item.Geo != nil
	Slots    uint16        // SlotsOf(Item.Duration), saturated at math.MaxUint16
}

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
	f := &v.feats[seq]
	return f.pub > c.key || (f.pub == c.key && !v.items.at(seq).Published.Before(c.t))
}

// Chunk sizes. Add copies items and category pairs into arrays it
// allocates whole and never grows or moves, so a pointer into one stays
// valid. A chunk is a whole number of 8 KiB pages, which the allocator
// does not round up (TestChunksAreWholePages).
const (
	itemChunk = 1024 // items: 112 B each, 14 pages
	pairCap   = 4096 // category pairs: 4 B ids, 2 pages; 8 B weights, 4 pages
)

// itemDir is the directory of a repository's item chunks: chunk k holds
// the items numbered k·itemChunk on. Each chunk is allocated whole and
// written in place, one item at a time at its seq, so neither a chunk
// nor an item a reader can reach is ever written again, and the
// directory only grows at its tail: a View shares it as it shares the
// other seq-indexed slices.
type itemDir []*[itemChunk]Item

// at returns the item numbered seq.
func (d itemDir) at(seq int32) *Item {
	return &d[uint32(seq)/itemChunk][uint32(seq)%itemChunk]
}

// addFeatures copies the item into the repository's item chunk at seq,
// writes its categories in name order as pairs into the pair chunk,
// files the item — seq beside weight — under each category's postings
// and appends its Features at seq. Caller holds the write lock.
func (r *Repository) addFeatures(it *Item, seq int32) {
	byName := r.byName[:0]
	for cat, w := range it.Weights() {
		byName = append(byName, namedWeight{cat, w})
	}
	slices.SortFunc(byName, func(a, b namedWeight) int { return strings.Compare(a.cat, b.cat) })
	r.byName = byName
	if r.pairs == nil || pairCap-r.nPairs < len(byName) {
		r.pairs, r.nPairs = new(pairChunk), 0
	}
	if int(seq) == len(r.items)*itemChunk {
		r.items = append(r.items, new([itemChunk]Item))
	}
	own := r.items.at(seq)
	*own = *it
	// Drop the input map, and the pairs a copy of another repository's
	// item brings: the pairs written below are the copy's own.
	own.Categories = nil
	own.pairs, own.pairOff, own.nPairs = r.pairs, uint16(r.nPairs), uint8(len(byName))
	f := Features{Duration: it.Duration, pub: pubKey(it.Published), Kind: it.Kind, HasGeo: it.Geo != nil}
	f.Slots = uint16(min(SlotsOf(it.Duration), math.MaxUint16))
	var norm float64
	for _, p := range byName {
		id := intern(p.cat)
		for int(id) >= len(r.post) {
			r.post = append(r.post, nil)
			r.postWs = append(r.postWs, nil)
		}
		r.post[id] = append(r.post[id], seq)
		r.postWs[id] = append(r.postWs[id], p.w)
		r.pairs.cats[r.nPairs], r.pairs.ws[r.nPairs] = id, p.w
		r.nPairs++
		norm += p.w * p.w
	}
	if norm > 0 {
		f.SqrtNorm = math.Sqrt(norm)
	}
	r.feats = append(r.feats, f)
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
// the items present when it was taken, their features, and the
// per-category weighted postings. Taking one costs a lock and a copy of
// two slice headers per category; using it takes no lock, because
// everything it points at is append-only (Repository). A View must not
// outlive the request it was taken for by long: it pins the arrays it
// saw.
type View struct {
	feats   []Features
	items   itemDir
	post    [][]int32
	postWs  [][]float64
	ordered int
}

// ReadView fills v with the current cut, reusing v's postings tables.
func (r *Repository) ReadView(v *View) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v.feats = r.feats
	v.items = r.items
	v.post = append(v.post[:0], r.post...)
	v.postWs = append(v.postWs[:0], r.postWs...)
	v.ordered = r.ordered
}

// Reset drops everything the view points at, keeping its postings
// tables' capacity for the next ReadView.
func (v *View) Reset() {
	clear(v.post)
	clear(v.postWs)
	*v = View{post: v.post[:0], postWs: v.postWs[:0]}
}

// Len returns the number of items in the view; they are numbered
// 0..Len()-1 in insertion order.
func (v *View) Len() int { return len(v.feats) }

// CategoryID returns the interned id of a category name; ok is false
// when no item in the view carries it.
func (v *View) CategoryID(name string) (int32, bool) {
	id, ok := catID(name)
	if !ok || int(id) >= len(v.post) || len(v.post[id]) == 0 {
		return 0, false
	}
	return id, true
}

// At returns the features of item seq.
func (v *View) At(seq int32) *Features { return &v.feats[seq] }

// Item returns item seq, which must be below Len().
func (v *View) Item(seq int32) *Item {
	_ = v.feats[seq] // seq is in the view
	return v.items.at(seq)
}

// WindowStart returns the first seq the cut can admit: every item
// numbered below it arrived in publish order and was published before
// the cut's second. Items from it on are candidates the caller still
// filters with Cut.Admits — those inside the cut's own second, and the
// late arrivals, which sit past the publish-ordered prefix whatever
// their publish time.
func (v *View) WindowStart(c Cut) int32 {
	return int32(sort.Search(v.ordered, func(i int) bool { return v.feats[i].pub >= c.key }))
}

// Postings returns the part of a category's postings numbered from seq
// on — ascending seqs, and beside each the weight its item gives the
// category.
func (v *View) Postings(cat, from int32) (seqs []int32, ws []float64) {
	list := v.post[cat]
	lo := sort.Search(len(list), func(i int) bool { return list[i] >= from })
	return list[lo:], v.postWs[cat][lo:]
}
