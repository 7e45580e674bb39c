package content

import (
	"encoding/json"
	"fmt"
	"io"
)

// Snapshot writes every item as a JSON array, in publish order. Together
// with Restore it gives the repository the dump/load durability story a
// deployment needs (the paper's content repository is a real database).
func (r *Repository) Snapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(r.All())
}

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
