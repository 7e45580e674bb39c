// Package content mirrors the shape the itemcategories analyzer keys
// on: an Item whose Categories map is input only, read inside its own
// package.
package content

type Item struct {
	ID         string
	Categories map[string]float64
}

// Weight reads the field in the package that owns it: no finding.
func (it *Item) Weight(cat string) float64 { return it.Categories[cat] }

// Program has a Categories field of its own, readable anywhere.
type Program struct {
	Categories map[string]float64
}
