package reader

import "content"

// Writes pass: a composite-literal key and assignment targets.
func build(m map[string]float64) *content.Item {
	it := &content.Item{ID: "a", Categories: m}
	it.Categories = nil
	it.Categories, it.ID = m, "b"
	return it
}

// Reads are flagged, however the field is reached.
func read(it *content.Item, wrapped struct{ *content.Item }) float64 {
	m := it.Categories          // want `content.Item.Categories read outside internal/content`
	_ = len(wrapped.Categories) // want `Categories read outside`
	for range it.Categories {   // want `Categories read outside`
	}
	it.Categories["x"] = 1 // want `Categories read outside`
	return m["y"]
}

// The accessor and another type's Categories field pass.
func fine(it *content.Item, p content.Program) float64 {
	return it.Weight("x") + p.Categories["y"]
}

// A justified read is suppressed.
func forwarded(it *content.Item) map[string]float64 {
	//pphcr:allow itemcategories the fixture's suppression case
	return it.Categories
}
