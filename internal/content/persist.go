package content

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
)

// MarshalJSON writes the item as encoding/json writes an Item's exported
// fields, Categories read through Weights: an item the repository holds
// encodes to the bytes of the map it was added with, as encoding/json
// sorts a map's keys.
func (it Item) MarshalJSON() ([]byte, error) {
	type plain Item // Item's fields, without this method
	if it.Categories == nil && len(it.ws) > 0 {
		it.Categories = maps.Collect(it.Weights())
	}
	return json.Marshal(plain(it))
}

// Snapshot writes every item as a JSON array, in publish order. Together
// with Restore it gives the repository the dump/load durability story a
// deployment needs (the paper's content repository is a real database).
// It writes the bytes MarshalJSON writes for each item, with no map per
// item: items are encoded snapshotBatch at a time, each batch's maps
// refilled for the next.
func (r *Repository) Snapshot(w io.Writer) error {
	type plain Item
	items := r.All()
	batch := make([]plain, min(len(items), snapshotBatch))
	cats := make([]map[string]float64, len(batch))
	for i := range cats {
		cats[i] = map[string]float64{}
	}
	// About what an item's JSON takes beyond its strings and pairs, and
	// what a pair takes: the buffer is allocated once, as a little more
	// than the array needs, and w takes it in one write.
	n := 3
	for _, it := range items {
		n += 192 + len(it.ID) + len(it.Title) + len(it.Program) + 32*len(it.ws)
	}
	var buf bytes.Buffer
	buf.Grow(n)
	enc := json.NewEncoder(&buf)
	for len(items) > 0 {
		k := min(len(items), len(batch))
		for i, it := range items[:k] {
			batch[i] = plain(*it)
			if len(it.ws) > 0 {
				clear(cats[i])
				for c, x := range it.Weights() {
					cats[i][c] = x
				}
				batch[i].Categories = cats[i]
			}
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
