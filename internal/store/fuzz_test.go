package store

import (
	"bytes"
	"testing"
	"time"
)

// fuzzSeedSegment builds a small valid segment image to seed the corpus;
// mutations of a well-formed input reach much deeper than random bytes
// (magic, version and per-frame CRCs gate the interesting paths).
func fuzzSeedSegment(t testing.TB) []byte {
	meta := Meta{
		Gen:         7,
		Created:     time.Unix(1600000000, 0).UTC(),
		Seed:        42,
		NumLIRs:     100,
		RoutingDays: 30,
		Workers:     4,
		BuildNS:     12345,
		Stages:      []Stage{{Name: "world", NS: 100}, {Name: "encode", NS: 50}},
		Transfers:   3,
	}
	arts := []Artifact{
		{Key: "/v1/study", ContentType: "application/json", ETag: `"abc"`, Body: []byte(`{"ok":true}`)},
		{Key: "/v1/study.csv", ContentType: "text/csv", ETag: `"def"`, Body: []byte("a,b\n1,2\n")},
		{Key: "/v1/empty", ContentType: "text/plain", ETag: "", Body: nil},
	}
	buf, err := encodeSegment(meta, arts)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// FuzzDecodeSegment asserts decodeSegment is total over arbitrary bytes:
// it never panics or over-allocates, and anything it accepts re-encodes
// into an image it accepts again with the same shape.
func FuzzDecodeSegment(f *testing.F) {
	seed := fuzzSeedSegment(f)
	f.Add(seed)
	f.Add(seed[:len(seed)-5]) // truncated footer
	f.Add(seed[:11])          // truncated header
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/2] ^= 0x40 // mid-frame corruption
	f.Add(flipped)
	f.Add([]byte("IPV4SEG1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		meta, arts, err := decodeSegment(data, true)
		if err != nil {
			return
		}
		// Accepted input: re-encoding must produce a decodable segment
		// with identical content. (Byte identity is not required — the
		// decoder does not constrain the meta frame's key/ctype fields,
		// which the encoder fixes.)
		reenc, err := encodeSegment(meta.Meta, arts)
		if err != nil {
			// encodeSegment enforces invariants the decoder tolerates
			// (an artifact with an empty key); that asymmetry is fine.
			return
		}
		meta2, arts2, err := decodeSegment(reenc, true)
		if err != nil {
			t.Fatalf("re-encoded segment rejected: %v", err)
		}
		if meta2.Gen != meta.Gen || meta2.Transfers != meta.Transfers || len(arts2) != len(arts) {
			t.Fatalf("round trip changed shape: %+v/%d vs %+v/%d", meta, len(arts), meta2, len(arts2))
		}
		for i := range arts {
			if arts[i].Key != arts2[i].Key || arts[i].ETag != arts2[i].ETag || !bytes.Equal(arts[i].Body, arts2[i].Body) {
				t.Fatalf("artifact %d changed in round trip", i)
			}
		}
	})
}

// FuzzDecodeFrame asserts the single-frame parser is total and its
// returned offset always makes progress within bounds.
func FuzzDecodeFrame(f *testing.F) {
	seed := fuzzSeedSegment(f)
	f.Add(seed[12:], 0) // first frame starts after magic+version
	f.Add([]byte{frameMeta, 0, 0}, 0)
	f.Add([]byte{frameFooter}, 0)
	f.Fuzz(func(t *testing.T, data []byte, off int) {
		if off < 0 || off > len(data) {
			return
		}
		fr, err := decodeFrame(data, off)
		if err != nil {
			return
		}
		if fr.next <= off || fr.next > len(data) {
			t.Fatalf("decodeFrame returned offset %d from %d (len %d)", fr.next, off, len(data))
		}
		if len(fr.body) > fr.next-off {
			t.Fatalf("body longer than the frame that carried it")
		}
	})
}
