// Package content models the audio items and the content repository of
// the paper's architecture (Fig 3): the podcasts and clips that the clip
// data management component classifies and the recommender draws from.
//
// An item's Categories map and strings are input only: Repository.Add
// keeps the distribution once, as pairs in the item's ranking row
// (Features), and the strings as copies in its own arena, and the item
// it hands out has Categories == nil. Item.Weights and
// Item.Weight read the map of an item never added and the row of one
// added.
//
// An item the repository holds is reached by its seq, its place in
// insertion order: the repository's item and row chunks are numbered in
// that order, so a seq names a chunk and a place in it (itemDir,
// rowDir), and nothing else — not the rows, not the ID index — points
// at the item.
package content

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"sort"
	"sync"
	"time"

	"pphcr/internal/geo"
)

// Categories is the fixed editorial taxonomy. The paper specifies "a set
// of 30 categories spacing from art to culture, music, economics".
var Categories = []string{
	"art", "culture", "music", "economics", "politics", "sport",
	"food", "travel", "technology", "science", "health", "cinema",
	"literature", "theatre", "history", "religion", "environment",
	"fashion", "education", "crime", "weather", "traffic", "finance",
	"business", "comedy", "society", "international", "regional",
	"interviews", "documentary",
}

// Kind distinguishes the item types the system schedules. It is a byte
// so that the ranking features (Features) can carry it in their padding.
type Kind uint8

// Item kinds. Clips are short on-demand podcast cuts; News items decay
// fast; TimeShifted entries reference a live program replayed from its
// scheduled start (Fig 4's "The rabbit's roar").
const (
	KindClip Kind = iota
	KindNews
	KindMusic
	KindTimeShifted
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindClip:
		return "clip"
	case KindNews:
		return "news"
	case KindMusic:
		return "music"
	case KindTimeShifted:
		return "timeshifted"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// GeoRelevance ties an item to a place: the item is relevant within
// Radius meters of Center (e.g. local news, a venue ad — Fig 2's item B
// "relevant to location L_B").
type GeoRelevance struct {
	Center geo.Point
	Radius float64 // meters
}

// Item is one recommendable audio unit.
//
// Every node holds one per catalog item for its life, so the layout is
// packed: the place of its row and the bitrate fill what would be
// Kind's padding, and an item is 112 B (TestItemSize). The JSON form
// keeps the fields' historical order (itemJSON).
type Item struct {
	ID      string
	Title   string
	Program string // editorial program the clip was cut from
	Kind    Kind
	row     uint16 // the item's row in *rows
	// Bitrate of the encoded audio, kbps.
	BitrateKbps int32
	Duration    time.Duration
	// Published is when the item entered the repository; freshness decays
	// from here.
	Published time.Time
	// Categories is the (possibly soft) category distribution assigned by
	// the classifier; weights sum to ~1. It is input only: Add reads it,
	// and an item the repository holds has it nil. Read an item's
	// categories with Weights or Weight.
	Categories map[string]float64
	// Geo is non-nil for geographically scoped items.
	Geo *GeoRelevance

	rows *rowsChunk // nil for an item never added
}

// maxCategories is the most categories an item can carry: Add refuses
// an item with more (errTooManyCategories).
const maxCategories = math.MaxUint8

var errTooManyCategories = errors.New("content: item has more categories than an item can carry")

// held returns the item's row: nil for an item never added.
func (it *Item) held() *Features {
	if it.Categories != nil || it.rows == nil {
		return nil
	}
	return &it.rows.rows[it.row]
}

// Weights returns the item's category distribution: the pairs Add kept,
// in category-name order, for an item a Repository holds, and the
// Categories map, in map order, for one never added.
func (it *Item) Weights() iter.Seq2[string, float64] {
	return func(yield func(string, float64) bool) {
		f := it.held()
		if f == nil {
			for c, w := range it.Categories {
				if !yield(c, w) {
					return
				}
			}
			return
		}
		names := catNames()
		for i := 0; i < rowPairs && f.ids[i] != emptyID; i++ {
			if !yield(names[f.ids[i]], f.ws[i]) {
				return
			}
		}
		for _, q := range spilled(it.rows.spill, f) {
			if !yield(names[q.id], q.w) {
				return
			}
		}
	}
}

// nCategories returns how many categories the item carries.
func (it *Item) nCategories() (n int) {
	for range it.Weights() {
		n++
	}
	return n
}

// CategoryKey is a category name resolved once to its interned id, for
// a reader that asks many items for the same category (Item.Weight): an
// item a Repository holds is then searched by id, not by name.
type CategoryKey struct {
	name string
	id   int32
}

// KeyOf resolves a category name. A name no item has carried yet is
// interned, for the life of the process, as Add would intern it.
func KeyOf(name string) CategoryKey { return CategoryKey{name, intern(name)} }

// Weight returns the item's weight for the category k names, 0 if it
// has none.
func (it *Item) Weight(k CategoryKey) float64 {
	f := it.held()
	if f == nil {
		return it.Categories[k.name]
	}
	for i, id := range f.ids {
		if int32(id) == k.id && id != emptyID {
			return f.ws[i]
		}
	}
	for _, q := range spilled(it.rows.spill, f) {
		if q.id == k.id {
			return q.w
		}
	}
	return 0
}

// TopCategory returns the argmax category (empty for an item without
// categories).
func (it *Item) TopCategory() string {
	best, bestW := "", -1.0
	for c, w := range it.Weights() {
		if w > bestW || (w == bestW && c < best) {
			best, bestW = c, w
		}
	}
	return best
}

// Repository is the thread-safe content store with the secondary indexes
// the recommender needs: by ID and by publish time.
//
// Add keeps its own copy of each item and its ranking row in
// append-only chunks (features.go), so a planning request reads the
// catalog through a View instead of re-deriving any of it. This is
// derived state: snapshot restore and WAL replay rebuild it through Add
// and nothing of it is persisted.
//
// Items are numbered in insertion order; that number (seq) never
// changes, and every seq-indexed chunk below only ever grows at its
// tail, which is what lets a View share them with readers lock-free.
// The item and row chunks are numbered the same way, so a seq is all it
// takes to reach an item (itemDir) or its row (rowDir).
type Repository struct {
	mu      sync.RWMutex
	ids     idIndex       // item ID -> seq
	items   itemDir       // seq -> the item: the chunks Add copies items into
	rows    rowDir        // seq -> the item's ranking row
	spill   sync.Map      // spilling row -> the pairs past it ([]pair)
	n       int           // items held
	byName  []namedWeight // addFeatures' sort scratch
	byPub   []int32       // seqs ordered by Published asc
	ordered int           // leading seqs that arrived in publish order
	strs    strArena      // the held items' ID, Title and Program
}

// NewRepository returns an empty repository.
func NewRepository() *Repository {
	return &Repository{ids: newIDIndex()}
}

// Add inserts an item. It rejects duplicates, empty IDs, non-positive
// durations and category vectors without a finite norm (a NaN or ±Inf
// weight, or one large enough to overflow Σw²: such an item has no
// cosine, every comparison downstream of it is false, and which items it
// displaces depends on the order they are evaluated in), and, for the
// same reason, a geographic scope whose geo score would be NaN.
//
// Add keeps a copy of the item, with Categories nil and the
// distribution (Weights) as pairs in its row, and its ID, Title and
// Program copied into the repository's own memory: it retains nothing
// of the map or of the caller's strings. Get, All and a View hand out
// the copy. The copy is immutable, and a View hands it to planners
// without a lock. It shares the GeoRelevance Geo points at, which must
// not change after Add either: a later write would be a data race,
// missing from the write-ahead log and ranked as if the item had none.
func (r *Repository) Add(it *Item) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.check(it); err != nil {
		return err
	}
	seq := int32(r.n)
	r.addFeatures(it, seq)
	r.n++
	r.ids.insert(r.items, seq)
	// Insert into the publish-ordered list (items arrive mostly in
	// order, so the scan from the tail is effectively O(1)).
	idx := len(r.byPub)
	for idx > 0 && r.items.at(r.byPub[idx-1]).Published.After(it.Published) {
		idx--
	}
	if idx == len(r.byPub) && r.ordered == int(seq) {
		r.ordered++
	}
	r.byPub = append(r.byPub, 0)
	copy(r.byPub[idx+1:], r.byPub[idx:])
	r.byPub[idx] = seq
	return nil
}

// CheckAdd returns the error Add would return, and adds nothing.
func (r *Repository) CheckAdd(it *Item) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.check(it)
}

// check is Add's refusal. The caller holds r.mu.
func (r *Repository) check(it *Item) error {
	if it == nil || it.ID == "" {
		return fmt.Errorf("content: item must have an ID")
	}
	if it.Duration <= 0 {
		return fmt.Errorf("content: item %q must have positive duration", it.ID)
	}
	var norm float64
	n := 0
	for _, w := range it.Weights() {
		norm += w * w
		n++
	}
	if math.IsNaN(norm) || math.IsInf(norm, 0) {
		return fmt.Errorf("content: item %q must have finite category weights", it.ID)
	}
	if n > maxCategories {
		return fmt.Errorf("%w: %q has %d, at most %d", errTooManyCategories, it.ID, n, maxCategories)
	}
	if g := it.Geo; g != nil && (!g.Center.Valid() || math.IsNaN(g.Radius)) {
		return fmt.Errorf("content: item %q must have its geographic scope on the globe", it.ID)
	}
	if _, dup := r.ids.find(r.items, it.ID); dup {
		return fmt.Errorf("content: duplicate item %q", it.ID)
	}
	return nil
}

// Get returns the item with the given ID.
func (r *Repository) Get(id string) (*Item, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	seq, ok := r.ids.find(r.items, id)
	if !ok {
		return nil, false
	}
	return r.items.at(seq), true
}

// Seq returns the number of the item with the given ID: its place in
// insertion order, which names that item for the repository's life.
func (r *Repository) Seq(id string) (int32, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ids.find(r.items, id)
}

// ItemAt returns the item numbered seq, which must be below Len().
func (r *Repository) ItemAt(seq int32) *Item {
	var v View
	r.ReadView(&v)
	return v.Item(seq)
}

// Len returns the number of items.
func (r *Repository) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.n
}

// All returns every item ordered by ascending publish time.
func (r *Repository) All() []*Item {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.appendItems(make([]*Item, 0, len(r.byPub)), r.byPub)
}

// appendItems appends the items numbered seqs to dst.
func (r *Repository) appendItems(dst []*Item, seqs []int32) []*Item {
	for _, seq := range seqs {
		dst = append(dst, r.items.at(seq))
	}
	return dst
}

// ByCategory returns the items whose top category matches, in insertion
// order.
func (r *Repository) ByCategory(cat string) []*Item {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := []*Item{}
	for seq := range int32(r.n) {
		if it := r.items.at(seq); it.TopCategory() == cat {
			out = append(out, it)
		}
	}
	return out
}

// AppendPublishedSince appends the items published at or after t to dst
// (ascending by publish time), reusing its capacity.
func (r *Repository) AppendPublishedSince(dst []*Item, t time.Time) []*Item {
	r.mu.RLock()
	defer r.mu.RUnlock()
	// Binary search over the sorted list.
	i := sort.Search(len(r.byPub), func(i int) bool {
		return !r.items.at(r.byPub[i]).Published.Before(t)
	})
	return r.appendItems(dst, r.byPub[i:])
}
