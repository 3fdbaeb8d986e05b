package serve

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
