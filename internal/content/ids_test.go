package content

import (
	"fmt"
	"testing"
	"time"
)

// TestIDIndexFindsEveryItem: across the table's growth points, every
// added item is found by its ID (and by an equal string that does not
// share its bytes), IDs never added are not, a duplicate is refused, and
// the table stays a power of two at most 3/4 full.
func TestIDIndexFindsEveryItem(t *testing.T) {
	r := NewRepository()
	var items []*Item
	for i := 0; i < 5000; i++ {
		it := item(fmt.Sprintf("clip-%d", i*7919), "music", time.Minute, t0)
		if err := r.Add(it); err != nil {
			t.Fatal(err)
		}
		items = append(items, it)
		if n := len(r.ids.slots); n&(n-1) != 0 || len(items)*4 > n*3 {
			t.Fatalf("%d items in %d slots", len(items), n)
		}
		if i%97 != 0 && i != 4999 {
			continue
		}
		for _, want := range items {
			if got, ok := r.Get(string([]byte(want.ID))); !ok || got.ID != want.ID {
				t.Fatalf("after %d adds: Get(%q) = %v, %v", len(items), want.ID, got, ok)
			}
		}
		for _, id := range []string{"", "clip-1", fmt.Sprintf("clip-%d", (i+1)*7919), "nope"} {
			if got, ok := r.Get(id); ok {
				t.Fatalf("after %d adds: Get(%q) found %q", len(items), id, got.ID)
			}
		}
	}
	if err := r.Add(item(items[1234].ID, "news", time.Minute, t0)); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	if r.Len() != len(items) {
		t.Fatalf("Len = %d, want %d", r.Len(), len(items))
	}
}
