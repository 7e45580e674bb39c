package replicate

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"

	"pphcr"
	"pphcr/internal/durable"
)

// Rebalance replays moved users' history on their new owner: it fetches
// every WAL segment from the source node (whose leader runs with
// RetainSegments, so the log reaches back to sequence 1) in log order,
// which is sequence order, and applies the moved users' records through
// sys's entry points as it reads them. The new owner is a live leader
// with its mutation hook attached, so each applied record is re-logged
// into its own WAL — the moved history becomes durable (and ships to the
// new owner's follower) exactly like native writes. A failure midway
// leaves the records read before it applied.
//
// Catalog ingest records carry no user and are skipped: every node
// ingests the same seeded catalog itself, so the moved users' feedback
// and injections resolve against items already present.
//
// Returns the number of records applied.
func Rebalance(ctx context.Context, sys *pphcr.System, sourceURL, prefix string, users []string) (int, error) {
	if len(users) == 0 {
		return 0, nil
	}
	moved := make(map[string]bool, len(users))
	for _, u := range users {
		moved[u] = true
	}
	hc := &http.Client{}

	st, err := fetchStatus(ctx, hc, sourceURL, prefix)
	if err != nil {
		return 0, err
	}
	if st.Format != durable.FormatVersion {
		return 0, fmt.Errorf("replicate: source WAL format %q, this node speaks %q", st.Format, durable.FormatVersion)
	}

	applied := 0
	for _, sf := range st.Segments {
		if err := scanRemoteSegment(ctx, hc, sourceURL, prefix, sf.Seq, func(e durable.Event) error {
			if user, ok := pphcr.EventUser(e); !ok || !moved[user] {
				return nil
			}
			if err := sys.ApplyReplicated(e); err != nil {
				return fmt.Errorf("replicate: applying rebalanced seq %d (%s): %w", e.Seq, e.Type, err)
			}
			applied++
			return nil
		}); err != nil {
			return applied, err
		}
	}
	return applied, nil
}

// scanRemoteSegment scans the valid records of one of the source's
// segments through fn. A torn tail is tolerated — it is the source's
// active append boundary. The body is read whole first: a stream cut
// short must fail the rebalance, not read as that tail.
func scanRemoteSegment(ctx context.Context, hc *http.Client, base, prefix string, seq int64, fn func(durable.Event) error) error {
	body, err := fetchSegment(ctx, hc, base, prefix, seq, 0)
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(body)
	body.Close()
	if err != nil {
		return err
	}
	_, _, err = durable.ScanRecords(bytes.NewReader(raw), fn)
	return err
}
