package content

import "hash/maphash"

// idIndex finds an item's seq by its ID. It is an open-addressing table
// of seq+1 (0 marks an empty slot) probed linearly and kept at most 3/4
// full; a probe compares the ID of the item the slot names, so the table
// holds no strings and no pointers: 4 B a slot, nothing for the
// collector to scan, where a map[string]int32 costs ≈ 44 B an item.
type idIndex struct {
	seed  maphash.Seed
	slots []int32 // length a power of two, or 0 before the first insert
}

func newIDIndex() idIndex { return idIndex{seed: maphash.MakeSeed()} }

// find returns the seq of the item with the given ID among items.
func (x *idIndex) find(items itemDir, id string) (int32, bool) {
	if len(x.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(x.slots) - 1)
	for i := maphash.String(x.seed, id) & mask; ; i = (i + 1) & mask {
		e := x.slots[i]
		if e == 0 {
			return 0, false
		}
		if items.at(e-1).ID == id {
			return e - 1, true
		}
	}
}

// insert files items' item seq, the last added, which is not in the
// index yet.
func (x *idIndex) insert(items itemDir, seq int32) {
	if (int(seq)+1)*4 > len(x.slots)*3 {
		x.slots = make([]int32, max(16, 2*len(x.slots)))
		for s := range seq {
			x.place(items.at(s).ID, s)
		}
	}
	x.place(items.at(seq).ID, seq)
}

func (x *idIndex) place(id string, seq int32) {
	mask := uint64(len(x.slots) - 1)
	i := maphash.String(x.seed, id) & mask
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = seq + 1
}
