package content

import (
	"strings"
	"unsafe"
)

// Arena sizes: strings are copied into 8 KiB chunks, one page each;
// one longer than arenaMax is cloned alone, so a chunk wastes less than
// arenaMax bytes at its tail. intern shares the copies of at most
// arenaNames distinct names; past that, a new name is copied like any
// other string, so a catalog whose items each name their own program
// keeps a map of only the first arenaNames.
const (
	arenaChunk = 8 << 10
	arenaMax   = 256
	arenaNames = 256
)

// strArena holds the strings of the items a repository keeps (ID, Title,
// Program), so that the catalog keeps none of its callers' memory: a
// caller's strings are garbage once Add returns. The chunks hold no
// pointer, so the collector never scans them; a string points into
// its chunk, which stays alive while any of its strings does.
type strArena struct {
	buf   []byte            // the chunk being filled: len is its bytes used
	names map[string]string // intern's copies, each keyed by itself
}

// intern returns the arena's copy of a name that many items carry (an
// item's Program): every item with the name shares one copy, whatever
// order the items come in.
func (a *strArena) intern(s string) string {
	if c, ok := a.names[s]; ok {
		return c
	}
	c := a.copy(s)
	if len(a.names) < arenaNames {
		if a.names == nil {
			a.names = make(map[string]string)
		}
		a.names[c] = c
	}
	return c
}

// copy returns a copy of s that the arena owns.
func (a *strArena) copy(s string) string {
	switch {
	case s == "":
		return ""
	case len(s) > arenaMax:
		return strings.Clone(s)
	case len(a.buf)+len(s) > cap(a.buf):
		a.buf = make([]byte, 0, arenaChunk)
	}
	start := len(a.buf)
	a.buf = append(a.buf, s...)
	return arenaString(a.buf[start:])
}

// arenaString returns b's bytes as a string without copying them: the
// package's one unsafe conversion. A string must never change, and arena
// bytes are never written again once handed out: copy appends only past
// them, into a chunk whose capacity it checked first, and replaces a
// full chunk with a new one rather than growing it.
func arenaString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}
