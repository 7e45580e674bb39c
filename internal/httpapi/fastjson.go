package httpapi

import "strconv"

// The fast reader: a strict, single-pass scanner for the bodies this
// package defines, used in front of encoding/json and never instead of
// it. Its contract is accept-or-decline. When a read function returns
// ok it has seen the whole body and its result is exactly what
// encoding/json produces for the same bytes; when it returns !ok it has
// decided nothing — the caller runs encoding/json on the same bytes,
// which also yields the error text and status a client sees. It
// declines, never guesses, on:
//
//   - any syntax error, a top level that is not an object, and any byte
//     but white space after the value (Decoder.Decode ignores trailing
//     data, the router's Unmarshal rejects it);
//   - an escape or a byte outside printable ASCII in any key or string
//     (keys match case-insensitively under Unicode folding: "uſer_id" is
//     user_id to encoding/json; ASCII keys are folded here);
//   - a value of the wrong type for a known field, a number that is not
//     an integer literal for an int64 field ("unix":1.0), and a number
//     strconv rejects ("lat":1e400);
//   - a second "fixes" key (encoding/json merges a repeated array into
//     the elements already decoded) and an element of fixes that is not
//     an object;
//   - nesting deeper than maxDepth.
//
// What it reproduces: the last duplicate of a scalar key wins, null
// leaves a field as it was, unknown keys are skipped, "fixes":[] is an
// empty non-nil slice, and a fix's own "user_id" is the fix's, not the
// request's.
type scanner struct {
	b []byte
	i int
}

// maxDepth bounds the nesting the fast reader follows; encoding/json
// stops at 10000.
const maxDepth = 64

// peek returns the next byte after white space, 0 at the end.
func (s *scanner) peek() byte {
	for s.i < len(s.b) {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return c
		}
	}
	return 0
}

// eat consumes c if it is the next byte after white space.
func (s *scanner) eat(c byte) bool {
	if s.peek() != c {
		return false
	}
	s.i++
	return true
}

// end reports whether only white space is left.
func (s *scanner) end() bool { return s.peek() == 0 && s.i == len(s.b) }

// str reads a string of printable ASCII without escapes.
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := s.b[s.i:j]
			s.i = j + 1
			return v, true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

func (s *scanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

// number reads a number by the JSON grammar (strconv alone would also
// take "+1", ".5", "0x10" and "1_000") and reports whether it is an
// integer literal.
func (s *scanner) number() (lit []byte, integer, ok bool) {
	s.peek()
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	if s.i < len(s.b) && s.b[s.i] == '0' {
		s.i++
	} else if !s.digits() {
		return nil, false, false
	}
	integer = true
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if !s.digits() {
			return nil, false, false
		}
		integer = false
	}
	if s.i < len(s.b) && s.b[s.i]|0x20 == 'e' {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if !s.digits() {
			return nil, false, false
		}
		integer = false
	}
	return s.b[start:s.i], integer, true
}

// word consumes the literal w. Whatever follows must be a delimiter,
// which the enclosing object, array or end check enforces.
func (s *scanner) word(w string) bool {
	if len(s.b)-s.i < len(w) || string(s.b[s.i:s.i+len(w)]) != w {
		return false
	}
	s.i += len(w)
	return true
}

// null consumes a null if one is next.
func (s *scanner) null() bool { return s.peek() == 'n' && s.word("null") }

// each walks the object ('{') or array ('[') that opens here, depth
// levels deep, calling value with the scanner on every member's value
// and, in an object, with the member's key.
func (s *scanner) each(open byte, depth int, value func(key []byte) bool) bool {
	if depth >= maxDepth || !s.eat(open) {
		return false
	}
	closing := open + 2 // '}' after '{', ']' after '[' in ASCII
	if s.eat(closing) {
		return true
	}
	for {
		var key []byte
		if open == '{' {
			var ok bool
			if key, ok = s.str(); !ok || !s.eat(':') {
				return false
			}
		}
		if !value(key) {
			return false
		}
		if !s.eat(',') {
			return s.eat(closing)
		}
	}
}

// skip consumes one value of any type, depth levels deep.
func (s *scanner) skip(depth int) bool {
	switch c := s.peek(); c {
	case '"':
		_, ok := s.str()
		return ok
	case '{', '[':
		return s.each(c, depth, func([]byte) bool { return s.skip(depth + 1) })
	case 't':
		return s.word("true")
	case 'f':
		return s.word("false")
	case 'n':
		return s.word("null")
	default:
		_, _, ok := s.number()
		return ok
	}
}

// is reports whether key names field as encoding/json matches them:
// exactly, else case-insensitively. field is lower case; a key with a
// non-ASCII byte never gets here.
func is(key []byte, field string) bool {
	if len(key) != len(field) {
		return false
	}
	for i, c := range key {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != field[i] {
			return false
		}
	}
	return true
}

// The typed values: each reads the field's type or a null, which leaves
// *dst as it was.

func (s *scanner) stringInto(dst *string) bool {
	if s.null() {
		return true
	}
	v, ok := s.str()
	if ok && string(v) != *dst {
		*dst = string(v)
	}
	return ok
}

func (s *scanner) int64Into(dst *int64) bool {
	if s.null() {
		return true
	}
	lit, integer, ok := s.number()
	if !ok || !integer {
		return false
	}
	v, err := strconv.ParseInt(string(lit), 10, 64)
	*dst = v
	return err == nil
}

func (s *scanner) float64Into(dst *float64) bool {
	if s.null() {
		return true
	}
	lit, _, ok := s.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	*dst = v
	return err == nil
}

// fix reads one TrackBody object depth levels deep.
func (s *scanner) fix(dst *TrackBody, depth int) bool {
	return s.each('{', depth, func(key []byte) bool {
		switch {
		case is(key, "user_id"):
			return s.stringInto(&dst.UserID)
		case is(key, "lat"):
			return s.float64Into(&dst.Lat)
		case is(key, "lon"):
			return s.float64Into(&dst.Lon)
		case is(key, "unix"):
			return s.int64Into(&dst.Unix)
		}
		return s.skip(depth + 1)
	})
}

// readTrack reads a /api/track body; *dst is written only on ok.
func readTrack(body []byte, dst *TrackBody) bool {
	s := scanner{b: body}
	var fix TrackBody
	if !s.fix(&fix, 0) || !s.end() {
		return false
	}
	*dst = fix
	return true
}

// readPlan reads a /api/plan body; *dst is written only on ok, and its
// Fixes then live in scratch's array where that is large enough.
func readPlan(body []byte, dst *PlanRequest, scratch []TrackBody) bool {
	s := scanner{b: body}
	var req PlanRequest
	sawFixes := false
	ok := s.each('{', 0, func(key []byte) bool {
		switch {
		case is(key, "user_id"):
			return s.stringInto(&req.UserID)
		case is(key, "now_unix"):
			return s.int64Into(&req.NowUnix)
		case !is(key, "fixes"):
			return s.skip(1)
		case sawFixes:
			return false
		}
		sawFixes = true
		if s.null() {
			return true
		}
		req.Fixes = scratch[:0]
		ok := s.each('[', 1, func([]byte) bool {
			req.Fixes = append(req.Fixes, TrackBody{})
			return s.peek() == '{' && s.fix(&req.Fixes[len(req.Fixes)-1], 2)
		})
		if req.Fixes == nil {
			req.Fixes = []TrackBody{} // as encoding/json leaves "fixes":[]
		}
		return ok
	})
	if !ok || !s.end() {
		return false
	}
	*dst = req
	return true
}

// BodyUser returns the top-level user_id of a JSON request body — the
// partition key the router forwards on — without decoding the rest. ok
// is false when the fast reader declines the body (see scanner); the
// caller then probes it with encoding/json.
func BodyUser(body []byte) (user string, ok bool) {
	s := scanner{b: body}
	ok = s.each('{', 0, func(key []byte) bool {
		if is(key, "user_id") {
			return s.stringInto(&user)
		}
		return s.skip(1)
	})
	if !ok || !s.end() {
		return "", false
	}
	return user, true
}
