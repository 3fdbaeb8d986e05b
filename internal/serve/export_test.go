package serve

import (
	"time"

	"ipv4market/internal/store"
	"ipv4market/internal/temporal"
)

// ArtifactETags returns the entity tag of every artifact snap persists,
// keyed "key content-type": the served JSON and CSV bodies and the
// _state/ artifacts behind filtered queries and warm starts. State
// artifacts carry no served ETag, so theirs is computed from the body.
// It lets the external golden test pin a whole build's bytes.
func ArtifactETags(snap *Snapshot) (map[string]string, error) {
	_, arts, err := snapshotRecord(snap)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(arts))
	for _, a := range arts {
		etag := a.ETag
		if etag == "" {
			etag = etagOf(a.Body)
		}
		out[a.Key+" "+a.ContentType] = etag
	}
	return out, nil
}

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
