package httpapi

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// appendPlanView appends v exactly as json.Encoder writes it, newline
// included. Like the fast reader it declines what it will not vouch for
// — a string the encoder would escape, a float it would refuse — and
// the caller then runs the encoder.
func appendPlanView(b []byte, v *PlanView) ([]byte, bool) {
	ok := true
	str := func(s string) {
		ascii := true
		for i := 0; i < len(s); i++ {
			c := s[i]
			// Escaped by the encoder: quotes, backslashes, controls, the
			// HTML trio and U+2028/9 (0xE2 starts both, and little else).
			if c < 0x20 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' || c == 0xE2 {
				ok = false
			}
			ascii = ascii && c < utf8.RuneSelf
		}
		if !ascii && !utf8.ValidString(s) {
			ok = false // the encoder writes U+FFFD for the bad bytes
		}
		b = append(append(append(b, '"'), s...), '"')
	}
	float := func(f float64) {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			ok = false
			return
		}
		// encoding/json's format switch and exponent clean-up.
		format := byte('f')
		if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
			format = 'e'
		}
		b = strconv.AppendFloat(b, f, format, -1, 64)
		if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	b = append(b, `{"proactive":`...)
	b = strconv.AppendBool(b, v.Proactive)
	if v.Reason != "" {
		b = append(b, `,"reason":`...)
		str(v.Reason)
	}
	b = append(b, `,"destination_place":`...)
	b = strconv.AppendInt(b, int64(v.Destination), 10)
	b = append(b, `,"confidence":`...)
	float(v.Confidence)
	b = append(b, `,"delta_t_seconds":`...)
	b = strconv.AppendInt(b, int64(v.DeltaTSeconds), 10)
	if v.Served != "" {
		b = append(b, `,"served":`...)
		str(v.Served)
	}
	b = append(b, `,"items":`...)
	if v.Items == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range v.Items {
			it := &v.Items[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"item_id":`...)
			str(it.ItemID)
			b = append(b, `,"title":`...)
			str(it.Title)
			b = append(b, `,"start_seconds":`...)
			b = strconv.AppendInt(b, int64(it.StartSeconds), 10)
			b = append(b, `,"seconds":`...)
			b = strconv.AppendInt(b, int64(it.Seconds), 10)
			if it.Deadline != 0 {
				b = append(b, `,"deadline_seconds":`...)
				b = strconv.AppendInt(b, int64(it.Deadline), 10)
			}
			b = append(b, `,"compound_score":`...)
			float(it.Compound)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if len(v.DroppedReasons) > 0 {
		b = append(b, `,"dropped_reasons":[`...)
		for i, r := range v.DroppedReasons {
			if i > 0 {
				b = append(b, ',')
			}
			str(r)
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...), ok
}
