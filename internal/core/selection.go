package core

import (
	"math"
	"slices"
	"time"

	"pphcr/internal/content"
	"pphcr/internal/recommend"
)

// Selection receives scored items one at a time and keeps the ones the
// knapsack could still choose, so a ranker never has to hold, sort or
// hand Allocate the thousands it cannot. Allocate over Ranked() returns
// the plan it returns over every item offered.
//
// Why nothing is lost. The knapsack has C = ΔT/content.Slot slots and
// an item of slot-weight w takes w of them, so no schedule holds more
// than ⌊C/w⌋ items of weight w. Order each weight class by value
// (compound × seconds) descending, ties in ranking order. If a schedule
// held an item x from below its class's first ⌊C/w⌋, one of those
// ⌊C/w⌋ would be unused, and swapping it in for x fills the same slots
// for at least the same value: a strictly greater value contradicts
// optimality, and on an equal value the DP — which walks the ranking
// and takes a later item only when that strictly improves on what the
// earlier ones reach — had already settled on the earlier one. So the
// DP's choice contains no such x; and removing items the DP does not
// choose leaves every cell its traceback visits unchanged, so it
// chooses the same set from the survivors. (Both steps compare sums of
// values; they are exact wherever those sums are, and off only where
// two different schedules tie to the last bit of a float64 sum.)
//
// The zero value is ready for Reset; a Selection is reusable but not
// safe for concurrent use.
type Selection struct {
	capacity int
	// classes[w] is a heap of the best ⌊capacity/w⌋ items of slot-weight
	// w offered so far, the worst of them at the root.
	classes [][]selEntry
	// floors[w] is the value an item of class w must reach to be kept:
	// -Inf while the class has room, its root's value once it is full.
	floors []float64
	ranked []recommend.Scored
}

type selEntry struct {
	sc    recommend.Scored
	value float64
}

// below orders a weight class: true when e would leave the class before
// o does.
func (e *selEntry) below(o *selEntry) bool {
	if e.value != o.value {
		return e.value < o.value
	}
	return recommend.CompareRank(e.sc, o.sc) > 0
}

// Reset empties the selection and sizes it for a plan of deltaT.
func (s *Selection) Reset(deltaT time.Duration) {
	s.capacity = int(deltaT / content.Slot)
	for w := range s.classes {
		s.classes[w] = s.classes[w][:0]
		s.floors[w] = math.Inf(-1)
	}
}

// class returns the slot-weight of an item of duration d, or 0 when no
// plan can hold it.
func (s *Selection) class(d time.Duration) int {
	if w := content.SlotsOf(d); w <= s.capacity {
		return w
	}
	return 0
}

// Rejects reports whether Offer would discard every item of duration d
// whose compound relevance is at most compoundBound — so a ranker
// holding a cheap upper bound on an item's score can skip computing the
// score itself. Strictly below the class's worst: an item that ties it
// must still be offered, the ranking order decides.
func (s *Selection) Rejects(d time.Duration, compoundBound float64) bool {
	w := s.class(d)
	if w == 0 {
		return true
	}
	return w < len(s.floors) && compoundBound*d.Seconds() < s.floors[w]
}

// Capacity returns the size of the plan in slots.
func (s *Selection) Capacity() int { return s.capacity }

// Offer adds one scored item; when that sets its class w's floor, it
// returns w and the floor, else 0.
func (s *Selection) Offer(sc recommend.Scored) (w int, floor float64) {
	if w = s.class(sc.Item.Duration); w == 0 {
		return 0, 0
	}
	for len(s.classes) <= w {
		s.classes = append(s.classes, nil)
		s.floors = append(s.floors, math.Inf(-1))
	}
	e := selEntry{sc: sc, value: slotValue(sc)}
	h := s.classes[w]
	if len(h) < s.capacity/w {
		h = append(h, e)
		s.classes[w] = h
		for i := len(h) - 1; i > 0; {
			parent := (i - 1) / 2
			if !h[i].below(&h[parent]) {
				break
			}
			h[i], h[parent] = h[parent], h[i]
			i = parent
		}
	} else if e.below(&h[0]) {
		return 0, 0
	} else {
		h[0] = e
		for i := 0; ; {
			l, r, m := 2*i+1, 2*i+2, i
			if l < len(h) && h[l].below(&h[m]) {
				m = l
			}
			if r < len(h) && h[r].below(&h[m]) {
				m = r
			}
			if m == i {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	if len(h) == s.capacity/w {
		s.floors[w] = h[0].value
		return w, h[0].value
	}
	return 0, 0
}

// Ranked returns the surviving items in ranking order. The slice is the
// selection's own and is valid until the next Reset.
func (s *Selection) Ranked() []recommend.Scored {
	out := s.ranked[:0]
	for _, h := range s.classes {
		for i := range h {
			out = append(out, h[i].sc)
		}
	}
	slices.SortFunc(out, recommend.CompareRank)
	s.ranked = out
	return out
}
