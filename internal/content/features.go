package content

import (
	"math"
	"sort"
	"time"
)

// Features is what ranking needs of one item besides the item itself,
// derived once at Add: where its category vector starts in the
// repository's arena (it ends where the next item's starts), that
// vector's norm, and a coarse publish time. The vector is ordered by
// category NAME, so a dot product that walks it adds its terms in the
// same order whatever ids the categories were interned to.
type Features struct {
	Item *Item
	// SqrtNorm is √Σw² over the category vector, summed in vector order;
	// 0 for an item without categories.
	SqrtNorm float64
	pub      uint32 // pubKey(Item.Published)
	off      uint32
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

// Admits reports whether the item was published at or after the cut.
func (c Cut) Admits(f *Features) bool {
	return f.pub > c.key || (f.pub == c.key && !f.Item.Published.Before(c.t))
}

// addFeatures interns the item's categories, appends its name-ordered
// category vector to the arena, files it — seq beside weight — under
// each category's postings and appends its Features at seq. Caller
// holds the write lock.
func (r *Repository) addFeatures(it *Item, seq int32) {
	names := r.names[:0]
	for cat := range it.Categories {
		names = append(names, cat)
	}
	sort.Strings(names)
	r.names = names
	f := Features{Item: it, pub: pubKey(it.Published), off: uint32(len(r.catIDs))}
	var norm float64
	for _, cat := range names {
		id, w := r.intern(cat), it.Categories[cat]
		r.catIDs = append(r.catIDs, id)
		r.catWs = append(r.catWs, w)
		r.post[id] = append(r.post[id], seq)
		r.postWs[id] = append(r.postWs[id], w)
		norm += w * w
	}
	if norm > 0 {
		f.SqrtNorm = math.Sqrt(norm)
	}
	r.feats = append(r.feats, f)
}

// intern returns the id of a category, assigning the next one to a name
// not seen before. The name table is copied, not extended in place, so
// the table a View took stays valid; new names are rare (the taxonomy
// has 30) and the copy is that small.
func (r *Repository) intern(cat string) int32 {
	if id, ok := r.cats[cat]; ok {
		return id
	}
	id := int32(len(r.post))
	grown := make(map[string]int32, len(r.cats)+1)
	for k, v := range r.cats {
		grown[k] = v
	}
	grown[cat] = id
	r.cats = grown
	r.post = append(r.post, nil)
	r.postWs = append(r.postWs, nil)
	return id
}

// Seq returns the insertion number of the item with the given ID — the
// index of its Features in any View taken afterwards.
func (r *Repository) Seq(id string) (int32, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	seq, ok := r.seqs[id]
	return seq, ok
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
	catIDs  []int32
	catWs   []float64
	cats    map[string]int32
	post    [][]int32
	postWs  [][]float64
	ordered int
}

// ReadView fills v with the current cut, reusing v's postings tables.
func (r *Repository) ReadView(v *View) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v.feats, v.catIDs, v.catWs = r.feats, r.catIDs, r.catWs
	v.cats = r.cats
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

// NumCategories returns the number of interned categories; their ids
// are 0..NumCategories()-1.
func (v *View) NumCategories() int { return len(v.post) }

// CategoryID returns the interned id of a category name; ok is false
// when no item in the view carries it.
func (v *View) CategoryID(name string) (int32, bool) {
	id, ok := v.cats[name]
	return id, ok
}

// At returns the features of item seq.
func (v *View) At(seq int32) *Features { return &v.feats[seq] }

// Vector returns item seq's category vector as parallel id and weight
// slices, ordered by category name.
func (v *View) Vector(seq int32) (ids []int32, ws []float64) {
	lo, hi := v.feats[seq].off, uint32(len(v.catIDs))
	if next := int(seq) + 1; next < len(v.feats) {
		hi = v.feats[next].off
	}
	return v.catIDs[lo:hi], v.catWs[lo:hi]
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
