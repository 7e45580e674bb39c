package feedback

import (
	"slices"
	"strings"
)

// Pref is one coordinate of a preference vector: a category and the
// listener's weight for it.
type Pref struct {
	Cat string
	W   float64
}

// Vector is a preference vector in category-name order, each category
// at most once. The store keeps a listener's decayed vector and
// compaction baseline in this form, and Preferences writes its result in
// it, so neither a write nor a plan builds a map.
type Vector []Pref

func cmpCat(p Pref, cat string) int { return strings.Compare(p.Cat, cat) }

// Map returns v as a map, for callers that want one.
func (v Vector) Map() map[string]float64 {
	m := make(map[string]float64, len(v))
	for _, p := range v {
		m[p.Cat] = p.W
	}
	return m
}

// add adds x to v's weight for cat, inserting cat at weight 0 first
// where v lacks it: a map's m[cat] += x, so each category's sum takes
// its terms in the same order and comes out with the same bits. The
// vectors the store keeps grow to the next size class, not by doubling
// (tight): a listener's categories are few and new ones arrive rarely,
// so the vector costs what it holds.
func (v Vector) add(cat string, x float64, tight bool) Vector {
	i, ok := slices.BinarySearchFunc(v, cat, cmpCat)
	switch {
	case ok:
	case tight && len(v) == cap(v):
		v = inserted(v, i, Pref{Cat: cat})
	default:
		v = slices.Insert(v, i, Pref{Cat: cat})
	}
	v[i].W += x
	return v
}

// scale multiplies every weight by d in place.
func (v Vector) scale(d float64) {
	for i := range v {
		v[i].W *= d
	}
}

// addScaled adds x·w for each weight w of u to v, a buffer.
func (v Vector) addScaled(u Vector, x float64) Vector {
	for _, p := range u {
		v = v.add(p.Cat, p.W*x, false)
	}
	return v
}

// inserted returns a copy of s with v inserted at i, in a new array of
// the smallest size class that holds it. It never writes s, which may be
// published to readers.
func inserted[T any](s []T, i int, v T) []T {
	out := slices.Grow([]T(nil), len(s)+1)
	out = append(out, s[:i]...)
	out = append(out, v)
	return append(out, s[i:]...)
}
