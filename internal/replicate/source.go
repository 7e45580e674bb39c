package replicate

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"

	"pphcr/internal/durable"
)

// Source is the leader side of WAL shipping: HTTP handlers a follower
// polls to mirror the leader's data directory. It serves raw bytes —
// the framing, CRCs and torn-tail semantics are the WAL's own, so a
// follower's copy is a valid recovery directory at every instant.
type Source struct {
	dir string
	// sync flushes acked-but-buffered WAL records to disk before a
	// status listing, so the advertised sizes cover everything
	// acknowledged under the interval sync policy. nil skips.
	sync func() error
	// walSeq reports the leader's sequence ceiling (0 when unknown).
	walSeq func() uint64
}

// NewSource serves dir. sync and walSeq may be nil (a cold directory
// with no live WAL, e.g. in tests).
func NewSource(dir string, sync func() error, walSeq func() uint64) *Source {
	return &Source{dir: dir, sync: sync, walSeq: walSeq}
}

// StatusView is the shipping manifest a follower polls.
type StatusView struct {
	// Format is the WAL record-framing version; a follower refuses to
	// mirror a log it cannot parse.
	Format string `json:"format"`
	// WalSeq is the leader's current sequence ceiling.
	WalSeq uint64 `json:"wal_seq"`
	// Segments / Checkpoints list the shippable files with their current
	// sizes; bytes past a follower's cursor are its ship window.
	Segments    []durable.File `json:"segments"`
	Checkpoints []durable.File `json:"checkpoints"`
}

// statusPath / filePath are the endpoint suffixes under the mount
// prefix (conventionally /replication).
const (
	statusPath = "/status"
	filePath   = "/file"
)

// fetchStatus reads the shipping manifest of the source at base+prefix.
func fetchStatus(ctx context.Context, hc *http.Client, base, prefix string) (StatusView, error) {
	var st StatusView
	body, err := fetch(ctx, hc, base+prefix+statusPath, "source status")
	if err != nil {
		return st, err
	}
	defer body.Close()
	err = json.NewDecoder(body).Decode(&st)
	return st, err
}

// fetchSegment streams WAL segment seq of the source at base+prefix from
// byte offset off. The caller closes the body.
func fetchSegment(ctx context.Context, hc *http.Client, base, prefix string, seq, off int64) (io.ReadCloser, error) {
	q := url.Values{"kind": {"segment"}, "seq": {fmt.Sprint(seq)}, "off": {fmt.Sprint(off)}}
	return fetch(ctx, hc, base+prefix+filePath+"?"+q.Encode(), fmt.Sprintf("fetching segment %d", seq))
}

// fetch GETs target and returns the body of a 200; any other status is
// an error naming what was fetched.
func fetch(ctx context.Context, hc *http.Client, target, what string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("replicate: %s: http %d: %s", what, resp.StatusCode, body)
	}
	return resp.Body, nil
}

// Mount registers the source's handlers on mux under prefix
// (e.g. "/replication").
func (s *Source) Mount(mux *http.ServeMux, prefix string) {
	mux.HandleFunc(http.MethodGet+" "+prefix+statusPath, s.handleStatus)
	mux.HandleFunc(http.MethodGet+" "+prefix+filePath, s.handleFile)
}

func (s *Source) handleStatus(w http.ResponseWriter, r *http.Request) {
	if s.sync != nil {
		if err := s.sync(); err != nil {
			http.Error(w, fmt.Sprintf("wal sync: %v", err), http.StatusServiceUnavailable)
			return
		}
	}
	segs, err := durable.ListSegments(s.dir)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	cps, err := durable.ListCheckpoints(s.dir)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	view := StatusView{Format: durable.FormatVersion, Segments: segs, Checkpoints: cps}
	if s.walSeq != nil {
		view.WalSeq = s.walSeq()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(view)
}

// handleFile streams one file's bytes from a byte offset. The file is
// named by kind+seq — never by a client-supplied path — so the endpoint
// cannot read outside the data directory.
func (s *Source) handleFile(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	seq, err := strconv.ParseInt(q.Get("seq"), 10, 64)
	if err != nil || seq < 0 {
		http.Error(w, "seq must be a non-negative integer", http.StatusBadRequest)
		return
	}
	off := int64(0)
	if o := q.Get("off"); o != "" {
		off, err = strconv.ParseInt(o, 10, 64)
		if err != nil || off < 0 {
			http.Error(w, "off must be a non-negative integer", http.StatusBadRequest)
			return
		}
	}
	var name string
	switch q.Get("kind") {
	case "segment", "":
		name = durable.SegmentFileName(seq)
	case "checkpoint":
		name = durable.CheckpointFileName(seq)
	default:
		http.Error(w, "kind must be segment or checkpoint", http.StatusBadRequest)
		return
	}
	f, err := os.Open(filepath.Join(s.dir, name))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			http.Error(w, "no such file", http.StatusNotFound)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer f.Close()
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	io.Copy(w, f)
}
