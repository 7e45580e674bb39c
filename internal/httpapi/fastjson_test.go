package httpapi

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// benchPlanBody is a plan body as bench/ and internal/client marshal it:
// every fix carries its own empty user_id.
func benchPlanBody(tb testing.TB) []byte {
	tb.Helper()
	req := PlanRequest{UserID: "user-017", NowUnix: 1479369600}
	for i := 0; i < 9; i++ {
		req.Fixes = append(req.Fixes, TrackBody{
			Lat: 45.0703 + float64(i)*1.37e-4, Lon: 7.6869 - float64(i)*2.11e-4, Unix: 1479369420 + int64(i)*20,
		})
	}
	b, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// quirkBodies is one body per encoding/json behaviour the fast reader
// must reproduce or decline; the seed corpus of both fuzz targets and the
// stock of the mutation test.
func quirkBodies(tb testing.TB) [][]byte {
	deep := strings.Repeat(`{"a":`, 65) + "1" + strings.Repeat("}", 65)
	bodies := []string{
		`{"user_id":"u1","fixes":[{"lat":1,"lon":2,"unix":3}],"now_unix":4}`,
		// A repeated array key is merged element-wise into the first.
		`{"user_id":"u1","fixes":[{"lat":1,"unix":7},{"lat":2}],"fixes":[{"lat":3}]}`,
		`{"fixes":null,"fixes":[{"lat":3}]}`,
		// Keys match case-insensitively, under Unicode folding.
		`{"USER_ID":"shout","Fixes":[{"LAT":1,"Unix":2}],"NOW_UNIX":3}`,
		`{"uſer_id":"long-s","fixeſ":[{"lat":1}]}`,
		`{"user_id":"first","USER_ID":"second"}`,
		// null leaves a field as it was; the last duplicate wins.
		`{"user_id":"kept","user_id":null,"now_unix":5,"now_unix":null}`,
		`{"user_id":"a","user_id":"b","fixes":[{"lat":1,"lat":2,"lat":null}]}`,
		// A fix's user_id is not the request's.
		`{"fixes":[{"user_id":"nested","lat":1}],"other":{"user_id":"deeper"}}`,
		`{"fixes":[{"user_id":"nested"}],"user_id":"top"}`,
		// Escapes and non-ASCII.
		`{"user_id":"\u0041\n\"x"}`,
		`{"user_id":"café"}`,
		`{"user_id":"café","fixes":[{"lat":1}]}`,
		`{"\u0075ser_id":"escaped-key"}`,
		`{"note":"tab\there","user_id":"u2"}`,
		"{\"user_id\":\"raw\x01control\"}",
		"{\"user_id\":\"bad\xffutf8\"}",
		// Numbers.
		`{"fixes":[{"unix":1.0}]}`,
		`{"fixes":[{"unix":1e3}]}`,
		`{"fixes":[{"lat":1e400}]}`,
		`{"fixes":[{"lat":-0,"lon":-0.0,"unix":-0}]}`,
		`{"fixes":[{"lat":1E+2,"lon":2.5e-3,"unix":9223372036854775807}]}`,
		`{"now_unix":9223372036854775808}`,
		`{"now_unix":01}`,
		`{"fixes":[{"lat":.5}]}`,
		`{"fixes":[{"lat":1.}]}`,
		`{"fixes":[{"lat":+1}]}`,
		`{"fixes":[{"lat":0x10}]}`,
		`{"fixes":[{"lat":"1"}]}`,
		`{"fixes":[{"lat":true}]}`,
		// Wrong shapes.
		`{"user_id":7}`,
		`{"user_id":["u"]}`,
		`{"fixes":{"lat":1}}`,
		`{"fixes":[null,{"lat":1}]}`,
		`{"fixes":[1]}`,
		`{"fixes":[]}`,
		`{"fixes":[[]]}`,
		`{"now_unix":"5"}`,
		`{"extra":[1,2.5,-3e2,true,false,null,{"k":[]}],"user_id":"u3"}`,
		// Around the value.
		` { "user_id" : "spaced" , "fixes" : [ { "lat" : 1 } ] } ` + "\n\t\r",
		`{"user_id":"u4"}}`,
		`{"user_id":"u4"} {"user_id":"second"}`,
		`{"user_id":"u4"}x`,
		"\xef\xbb\xbf" + `{"user_id":"bom"}`,
		`{"user_id":"u5",}`,
		`{"user_id":"u5"`,
		`{"user_id"}`,
		`{user_id:"u6"}`,
		`{"user_id":"u6" "fixes":[]}`,
		`{"fixes":[{"lat":1},]}`,
		`{"a":nul}`,
		`{"a":nullx}`,
		`{"a":truefalse}`,
		`null`,
		`"user_id"`,
		`[{"user_id":"in-array"}]`,
		`42`,
		``,
		`{}`,
		deep,
		`{"user_id":"under",` + deep[1:],
	}
	out := [][]byte{benchPlanBody(tb)}
	for _, b := range bodies {
		out = append(out, []byte(b))
	}
	return out
}

// dirtyFixes is a decode scratch with stale content, as a pooled one has.
func dirtyFixes() []TrackBody {
	return []TrackBody{{UserID: "stale", Lat: 9, Lon: 9, Unix: 9}, {UserID: "stale", Lat: 8}}[:0]
}

// checkPlanBody holds readPlan and readTrack to their contract on body:
// whenever they accept, encoding/json accepted too and decoded the same.
func checkPlanBody(t *testing.T, body []byte) (accepted bool) {
	var got, want PlanRequest
	if readPlan(body, &got, dirtyFixes()) {
		accepted = true
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&want); err != nil {
			t.Fatalf("readPlan accepted %q, encoding/json says %v", body, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("readPlan(%q)\n got %+v\nwant %+v", body, got, want)
		}
	} else if !reflect.DeepEqual(got, PlanRequest{}) {
		t.Fatalf("readPlan declined %q but wrote %+v", body, got)
	}
	var gotFix, wantFix TrackBody
	if readTrack(body, &gotFix) {
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&wantFix); err != nil {
			t.Fatalf("readTrack accepted %q, encoding/json says %v", body, err)
		}
		if gotFix != wantFix {
			t.Fatalf("readTrack(%q)\n got %+v\nwant %+v", body, gotFix, wantFix)
		}
	} else if gotFix != (TrackBody{}) {
		t.Fatalf("readTrack declined %q but wrote %+v", body, gotFix)
	}
	return accepted
}

// checkBodyUser holds BodyUser to the router's probe.
func checkBodyUser(t *testing.T, body []byte) (accepted bool) {
	user, ok := BodyUser(body)
	if !ok {
		if user != "" {
			t.Fatalf("BodyUser declined %q but returned %q", body, user)
		}
		return false
	}
	var probe struct {
		UserID string `json:"user_id"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		t.Fatalf("BodyUser accepted %q, encoding/json says %v", body, err)
	}
	if user != probe.UserID {
		t.Fatalf("BodyUser(%q) = %q, encoding/json says %q", body, user, probe.UserID)
	}
	return true
}

func FuzzPlanBody(f *testing.F) {
	for _, b := range quirkBodies(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkPlanBody(t, body) })
}

func FuzzBodyUser(f *testing.F) {
	for _, b := range quirkBodies(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkBodyUser(t, body) })
}

// TestFastReaderTakesBenchBodies pins which side of the selection the
// bodies of real traffic take, and a few the fast reader must decline.
func TestFastReaderTakesBenchBodies(t *testing.T) {
	body := benchPlanBody(t)
	var req PlanRequest
	if !readPlan(body, &req, nil) || req.UserID != "user-017" || len(req.Fixes) != 9 {
		t.Fatalf("readPlan declined or misread a bench body: %+v", req)
	}
	if user, ok := BodyUser(body); !ok || user != "user-017" {
		t.Fatalf("BodyUser(bench body) = %q, %v", user, ok)
	}
	var fix TrackBody
	if !readTrack([]byte(`{"user_id":"u","lat":45.07,"lon":7.68,"unix":1479369600}`), &fix) || fix.Lat != 45.07 {
		t.Fatalf("readTrack declined or misread a track body: %+v", fix)
	}
	for _, decline := range []string{
		`{"user_id":"u","fixes":[{"lat":1}],"fixes":[{"lon":2}]}`,
		`{"fixes":[{"unix":1.0}]}`,
	} {
		if readPlan([]byte(decline), &req, nil) {
			t.Errorf("readPlan accepted %s", decline)
		}
	}
	for _, decline := range []string{`{"uſer_id":"u"}`, `{"user_id":"\u0041"}`, `{"user_id":"u"}}`} {
		if readPlan([]byte(decline), &req, nil) {
			t.Errorf("readPlan accepted %s", decline)
		}
		if _, ok := BodyUser([]byte(decline)); ok {
			t.Errorf("BodyUser accepted %s", decline)
		}
	}
}

// TestFastReaderMatchesEncodingJSON is the fuzz targets' check over a
// seeded stream of mutated bodies, so plain go test covers it. A failure
// prints the body verbatim (%q).
func TestFastReaderMatchesEncodingJSON(t *testing.T) {
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	stock := quirkBodies(t)
	for _, b := range stock {
		checkPlanBody(t, b)
		checkBodyUser(t, b)
	}
	// What a mutation splices in: whole members and values, which mostly
	// keep a body well-formed, and fragments, which mostly do not.
	members := []string{
		`"user_id":"m"`, `"USER_ID":"M"`, `"uſer_id":"s"`, `"user_id":null`, `"user_id":7`, `"user_id":"\u0041"`,
		`"fixes":[{"lat":5}]`, `"Fixes":[{"unix":6}]`, `"fixes":null`, `"fixes":[]`, `"now_unix":8`, `"now_unix":8.0`,
		`"lat":1.5`, `"lon":-2e-3`, `"unix":3`, `"unix":1e3`, `"lat":1e400`, `"lat":null`,
		`"k":{"user_id":"inner"}`, `"k":[1,[2,{"a":"b"}]]`, `"é":1`, `"k":"é"`, `"k":"\n"`,
	}
	values := []string{
		"null", "true", "false", "0", "-0", "1", "1.0", "1e3", "1e400", "0.5", "-7", "12345678901234567890",
		`"v"`, `"\u0041"`, `"é"`, "[]", "{}", `{"lat":1,"unix":2}`, `[{"lon":3}]`,
	}
	fragments := []string{
		"{", "}", "[", "]", ",", ":", `"`, " ", "\n", "nul", "-", ".", "e", "+", "01", `\`, "ſ", "\x00", "\x7f", "\xff",
	}
	pick := func(rng *rand.Rand, from []string) []byte { return []byte(from[rng.Intn(len(from))]) }
	splice := func(body []byte, at, end int, in []byte) []byte {
		return append(body[:at:at], append(in, body[end:]...)...)
	}
	rng := rand.New(rand.NewSource(19))
	var planOK, userOK int
	for i := 0; i < n; i++ {
		body := append([]byte(nil), stock[rng.Intn(len(stock))]...)
		for edits := 1 + rng.Intn(3); edits > 0; edits-- {
			at := rng.Intn(len(body) + 1)
			switch rng.Intn(7) {
			case 0: // a member after some { or ,
				if j := bytes.IndexAny(body[at:], "{,"); j >= 0 {
					body = splice(body, at+j+1, at+j+1, append(pick(rng, members), ','))
				}
			case 1: // a value in place of whatever follows some :
				if j := bytes.IndexByte(body[at:], ':'); j >= 0 {
					end := at + j + 1
					for end < len(body) && !bytes.ContainsRune([]byte(",}]"), rune(body[end])) {
						end++
					}
					body = splice(body, at+j+1, end, pick(rng, values))
				}
			case 2:
				body = splice(body, at, at, pick(rng, fragments))
			case 3:
				body = splice(body, at, min(at+1, len(body)), pick(rng, fragments))
			case 4: // cut a span
				body = splice(body, at, min(at+1+rng.Intn(8), len(body)), nil)
			case 5: // repeat a span
				end := min(at+1+rng.Intn(24), len(body))
				body = append(body[:end:end], body[at:]...)
			case 6: // flip a bit
				if at < len(body) {
					body[at] ^= 1 << rng.Intn(8)
				}
			}
		}
		if checkPlanBody(t, body) {
			planOK++
		}
		if checkBodyUser(t, body) {
			userOK++
		}
	}
	// Both sides of the selection must be exercised for the run to mean
	// anything.
	for name, ok := range map[string]int{"readPlan": planOK, "BodyUser": userOK} {
		if ok < n/20 || ok > n-n/20 {
			t.Errorf("%s accepted %d of %d mutated bodies; the mutations no longer exercise both sides", name, ok, n)
		}
	}
	t.Logf("accepted: readPlan %d, BodyUser %d of %d", planOK, userOK, n)
}
