package serve

import (
	"time"

	"ipv4market/internal/store"
	"ipv4market/internal/temporal"
)

// ETagOf is the strong entity tag the server gives a body.
var ETagOf = etagOf

// SnapshotRecord is the store record snap persists as: its metadata,
// the served JSON and CSV bodies with their ETags, and the _state/
// artifacts behind filtered queries and warm starts, which carry no
// ETag. It lets external tests pin a whole build's bytes and write
// stores by hand.
var SnapshotRecord = snapshotRecord

// EventRowBlock is how many event rows one block of the table renders.
const EventRowBlock = eventRowBlock

// AsofDiffReference renders a GET /v1/asof/diff body and ETag the
// row-at-a-time way (referenceAsofDiff), the oracle the event-row table
// is held to.
func AsofDiffReference(ix *temporal.Index, gen uint64, from, to time.Time) ([]byte, string, error) {
	art, err := referenceAsofDiff(ix, gen, from, to)
	if err != nil {
		return nil, "", err
	}
	return art.json, art.jsonETag, nil
}

// NewDiffRows returns a diff renderer over a fresh, cold event-row table
// of ix; each call answers one window's body and ETag.
func NewDiffRows(ix *temporal.Index) func(gen uint64, from, to time.Time) ([]byte, string, error) {
	rows := newEventRows(ix)
	return func(gen uint64, from, to time.Time) ([]byte, string, error) {
		art, err := rows.diff(gen, from, to)
		if err != nil {
			return nil, "", err
		}
		return art.json, art.jsonETag, nil
	}
}

// Persist appends snap to st as a new generation and returns its ID, so
// an external test can restore a built world from a store without
// building it again.
func Persist(st *store.Store, snap *Snapshot) (uint64, error) {
	meta, arts, err := snapshotRecord(snap)
	if err != nil {
		return 0, err
	}
	meta, err = st.Append(meta, arts)
	return meta.Gen, err
}
