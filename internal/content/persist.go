package content

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"time"
)

// itemJSON is an Item's JSON form: its exported fields in the order
// Item declared them before its layout was packed, so snapshots and
// logged ingests keep their bytes. Decoding needs no such type: fields
// are matched by name.
type itemJSON struct {
	ID          string
	Title       string
	Program     string
	Kind        Kind
	Duration    time.Duration
	Published   time.Time
	Categories  map[string]float64
	Geo         *GeoRelevance
	BitrateKbps int32
}

// asJSON returns the item's JSON form with the given categories.
func (it *Item) asJSON(cats map[string]float64) itemJSON {
	return itemJSON{
		ID: it.ID, Title: it.Title, Program: it.Program, Kind: it.Kind,
		Duration: it.Duration, Published: it.Published, Categories: cats,
		Geo: it.Geo, BitrateKbps: it.BitrateKbps,
	}
}

// MarshalJSON writes the item as encoding/json writes itemJSON,
// Categories read through Weights: an item the repository holds
// encodes to the bytes of the map it was added with, as encoding/json
// sorts a map's keys.
func (it Item) MarshalJSON() ([]byte, error) {
	cats := it.Categories
	if it.held() != nil && it.nCategories() > 0 {
		cats = maps.Collect(it.Weights())
	}
	return json.Marshal(it.asJSON(cats))
}

// Snapshot writes every item as a JSON array, in publish order. Together
// with Restore it gives the repository the dump/load durability story a
// deployment needs (the paper's content repository is a real database).
// It writes the bytes MarshalJSON writes for each item, with no map per
// item: items are encoded snapshotBatch at a time, each batch's maps
// refilled for the next.
func (r *Repository) Snapshot(w io.Writer) error {
	items := r.All()
	batch := make([]itemJSON, min(len(items), snapshotBatch))
	cats := make([]map[string]float64, len(batch))
	for i := range cats {
		cats[i] = map[string]float64{}
	}
	// About what an item's JSON takes beyond its strings and pairs, and
	// what a pair takes: the buffer is allocated once, as a little more
	// than the array needs, and w takes it in one write.
	n := 3
	for _, it := range items {
		n += 192 + len(it.ID) + len(it.Title) + len(it.Program) + 32*it.nCategories()
	}
	var buf bytes.Buffer
	buf.Grow(n)
	enc := json.NewEncoder(&buf)
	for len(items) > 0 {
		k := min(len(items), len(batch))
		for i, it := range items[:k] {
			m := it.Categories
			if it.nCategories() > 0 {
				m = cats[i]
				clear(m)
				for c, x := range it.Weights() {
					m[c] = x
				}
			}
			batch[i] = it.asJSON(m)
		}
		// Each batch is encoded as an array: its "]\n" is cut, and its
		// '[' becomes the ',' that joins it to the batch before.
		start := buf.Len()
		if err := enc.Encode(batch[:k]); err != nil {
			return err
		}
		if start > 0 {
			buf.Bytes()[start] = ','
		}
		buf.Truncate(buf.Len() - 2)
		items = items[k:]
	}
	if buf.Len() == 0 {
		buf.WriteByte('[')
	}
	buf.WriteString("]\n")
	_, err := w.Write(buf.Bytes())
	return err
}

// snapshotBatch is how many items Snapshot encodes at once.
const snapshotBatch = 256

// Restore loads a snapshot produced by Snapshot into an empty
// repository. Restoring into a non-empty repository fails rather than
// merging, to keep the operation idempotent and predictable. One item
// Add refuses fails the whole restore: Snapshot writes only items Add
// took, so such an item means the snapshot is not this repository's —
// unlike a WAL ingest record, which is written before its Add runs and
// whose failure replay therefore skips.
func (r *Repository) Restore(rd io.Reader) error {
	if r.Len() != 0 {
		return fmt.Errorf("content: restore requires an empty repository (have %d items)", r.Len())
	}
	var items []*Item
	if err := json.NewDecoder(rd).Decode(&items); err != nil {
		return fmt.Errorf("content: decoding snapshot: %w", err)
	}
	for _, it := range items {
		if err := r.Add(it); err != nil {
			return fmt.Errorf("content: restoring %q: %w", it.ID, err)
		}
	}
	return nil
}
