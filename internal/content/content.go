// Package content models the audio items and the content repository of
// the paper's architecture (Fig 3): the podcasts and clips that the clip
// data management component classifies and the recommender draws from.
package content

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"pphcr/internal/geo"
	"pphcr/internal/spatial"
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

// IsCategory reports whether c is one of the 30 editorial categories.
func IsCategory(c string) bool {
	for _, k := range Categories {
		if k == c {
			return true
		}
	}
	return false
}

// Kind distinguishes the item types the system schedules.
type Kind int

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
type Item struct {
	ID       string
	Title    string
	Program  string // editorial program the clip was cut from
	Kind     Kind
	Duration time.Duration
	// Published is when the item entered the repository; freshness decays
	// from here.
	Published time.Time
	// Categories is the (possibly soft) category distribution assigned by
	// the classifier; weights sum to ~1.
	Categories map[string]float64
	// Geo is non-nil for geographically scoped items.
	Geo *GeoRelevance
	// Bitrate of the encoded audio, kbps; used by bandwidth accounting.
	BitrateKbps int
}

// TopCategory returns the argmax category (empty for an empty map).
func (it *Item) TopCategory() string {
	best, bestW := "", -1.0
	for c, w := range it.Categories {
		if w > bestW || (w == bestW && c < best) {
			best, bestW = c, w
		}
	}
	return best
}

// SizeBytes returns the approximate encoded size of the item's audio.
func (it *Item) SizeBytes() int64 {
	kbps := it.BitrateKbps
	if kbps <= 0 {
		kbps = 96 // the paper's stream bitrate
	}
	return int64(float64(kbps) * 1000 / 8 * it.Duration.Seconds())
}

// VectorIndex is the hook through which an embedding index (the ANN
// retrieval path, internal/ann) tracks the catalog. It is satisfied by
// *ann.Index; the indirection keeps content free of embedding imports.
// Insert is called with the repository lock held, so implementations
// must not call back into the Repository (lock hierarchy: store locks
// at level 30 sit above the vector-index lock at level 40 —
// docs/analysis.md).
type VectorIndex interface {
	Insert(it *Item)
}

// Repository is the thread-safe content store with the secondary indexes
// the recommender needs: by ID, by category, by publish time, and —
// for geographically scoped items — an R-tree over their relevance
// discs, so GeoItems answers point queries without scanning the table.
// When a VectorIndex is attached, every item is additionally embedded
// into it on Add, beside the R-tree.
//
// Add also derives each item's ranking features (features.go) and files
// the item under every category it carries, so a planning request reads
// the catalog through a View instead of re-deriving any of it. Like the
// vector index this is derived state: snapshot restore and WAL replay
// rebuild it through Add and nothing of it is persisted.
//
// Items are numbered in insertion order; that number (seq) never
// changes, and every seq-indexed slice below only ever grows at its
// tail, which is what lets a View share them with readers lock-free.
type Repository struct {
	mu      sync.RWMutex
	seqs    map[string]int32 // item ID -> seq
	feats   []Features       // seq -> item and its resident features
	catIDs  []int32          // category vectors of all items, back to back
	catWs   []float64        // parallel to catIDs
	cats    map[string]int32 // category -> interned id; replaced, never mutated
	names   []string         // addFeatures' sort scratch
	post    [][]int32        // category id -> seqs of the items carrying it
	postWs  [][]float64      // parallel to post: the weight each item gives the category
	byPub   []int32          // seqs ordered by Published asc
	ordered int              // leading seqs that arrived in publish order
	geoTree *spatial.RTree   // rects around geo discs -> geoSeqs index
	geoSeqs []int32          // R-tree leaf id -> seq
	vecIx   VectorIndex      // optional ANN mirror of the catalog
}

// SetVectorIndex attaches (or detaches, with nil) the embedding index.
// Items already in the repository are backfilled, so attachment order
// relative to Restore does not matter. Holding the write lock while
// backfilling keeps the "item visible implies item indexed" invariant.
func (r *Repository) SetVectorIndex(ix VectorIndex) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.vecIx = ix
	if ix == nil {
		return
	}
	for _, seq := range r.byPub {
		ix.Insert(r.feats[seq].Item)
	}
}

// NewRepository returns an empty repository.
func NewRepository() *Repository {
	return &Repository{
		seqs:    make(map[string]int32),
		cats:    map[string]int32{},
		geoTree: spatial.NewRTree(),
	}
}

// Add inserts an item. It rejects duplicates, empty IDs, non-positive
// durations and category vectors without a finite norm (a NaN or ±Inf
// weight, or one large enough to overflow Σw²: such an item has no
// cosine, every comparison downstream of it is false, and which items it
// displaces depends on the order they are evaluated in).
// The repository reads it.Categories once, here; the map must not change
// afterwards.
func (r *Repository) Add(it *Item) error {
	if it == nil || it.ID == "" {
		return fmt.Errorf("content: item must have an ID")
	}
	if it.Duration <= 0 {
		return fmt.Errorf("content: item %q must have positive duration", it.ID)
	}
	var norm float64
	for _, w := range it.Categories {
		norm += w * w
	}
	if math.IsNaN(norm) || math.IsInf(norm, 0) {
		return fmt.Errorf("content: item %q must have finite category weights", it.ID)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.seqs[it.ID]; dup {
		return fmt.Errorf("content: duplicate item %q", it.ID)
	}
	seq := int32(len(r.feats))
	r.seqs[it.ID] = seq
	r.addFeatures(it, seq)
	if it.Geo != nil {
		r.geoTree.Insert(geo.RectAround(it.Geo.Center, it.Geo.Radius), len(r.geoSeqs))
		r.geoSeqs = append(r.geoSeqs, seq)
	}
	// Insert into the publish-ordered list (items arrive mostly in
	// order, so the scan from the tail is effectively O(1)).
	idx := len(r.byPub)
	for idx > 0 && r.feats[r.byPub[idx-1]].Item.Published.After(it.Published) {
		idx--
	}
	if idx == len(r.byPub) && r.ordered == int(seq) {
		r.ordered++
	}
	r.byPub = append(r.byPub, 0)
	copy(r.byPub[idx+1:], r.byPub[idx:])
	r.byPub[idx] = seq
	if r.vecIx != nil {
		r.vecIx.Insert(it)
	}
	return nil
}

// Get returns the item with the given ID.
func (r *Repository) Get(id string) (*Item, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	seq, ok := r.seqs[id]
	if !ok {
		return nil, false
	}
	return r.feats[seq].Item, true
}

// Len returns the number of items.
func (r *Repository) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.feats)
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
		dst = append(dst, r.feats[seq].Item)
	}
	return dst
}

// ByCategory returns the items whose top category matches, in insertion
// order.
func (r *Repository) ByCategory(cat string) []*Item {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := []*Item{}
	if id, ok := r.cats[cat]; ok {
		for _, seq := range r.post[id] {
			if it := r.feats[seq].Item; it.TopCategory() == cat {
				out = append(out, it)
			}
		}
	}
	return out
}

// PublishedSince returns items published at or after t, ascending.
func (r *Repository) PublishedSince(t time.Time) []*Item {
	return r.AppendPublishedSince(nil, t)
}

// AppendPublishedSince appends the items published at or after t to dst
// (ascending by publish time), reusing its capacity.
func (r *Repository) AppendPublishedSince(dst []*Item, t time.Time) []*Item {
	r.mu.RLock()
	defer r.mu.RUnlock()
	// Binary search over the sorted list.
	i := sort.Search(len(r.byPub), func(i int) bool {
		return !r.feats[r.byPub[i]].Item.Published.Before(t)
	})
	return r.appendItems(dst, r.byPub[i:])
}

// GeoItems returns the items whose geographic scope contains p, ordered
// by ascending publish time (ties by ID). The query walks the R-tree
// over the items' relevance discs instead of scanning the whole table.
func (r *Repository) GeoItems(p geo.Point) []*Item {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := r.geoTree.Search(geo.PointRect(p), nil)
	out := make([]*Item, 0, len(ids))
	for _, id := range ids {
		it := r.feats[r.geoSeqs[id]].Item
		if geo.Distance(p, it.Geo.Center) <= it.Geo.Radius {
			out = append(out, it)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Published.Equal(out[j].Published) {
			return out[i].Published.Before(out[j].Published)
		}
		return out[i].ID < out[j].ID
	})
	return out
}
