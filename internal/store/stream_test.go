package store

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestStreamedSegmentMatchesEncode holds Append's streamed segment to
// the in-memory encoder byte for byte: a generation with no artifacts,
// empty bodies, ETags and content types, a body larger than the write
// buffer, more frame headers than the buffer holds, and multi-byte
// keys. Each file's recorded size must be its length on disk.
func TestStreamedSegmentMatchesEncode(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 3*segmentBufSize/16+7)
	var many []Artifact
	for i := 0; i < 3000; i++ {
		many = append(many, Artifact{Key: "k/" + strings.Repeat("x", i%40), ContentType: "text/csv", ETag: `"e"`, Body: []byte{byte(i)}})
	}
	cases := []struct {
		name string
		arts []Artifact
	}{
		{"no artifacts", nil},
		{"test artifacts", testArtifacts()},
		{"empty fields", []Artifact{{Key: "a"}, {Key: "b", ContentType: "text/csv", Body: []byte{}}}},
		{"body beyond the buffer", []Artifact{{Key: "big", ContentType: "application/json", ETag: `"1"`, Body: big}, {Key: "after", Body: []byte("x")}}},
		{"headers beyond the buffer", many},
		{"multi-byte keys", []Artifact{{Key: "préfixe/€", ContentType: "application/json; charset=utf-8", ETag: `"ü"`, Body: []byte("\x00\xff")}}},
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cases {
		meta, err := s.Append(testMeta(int64(i)), c.arts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := encodeSegment(meta, c.arts)
		if err != nil {
			t.Fatal(err)
		}
		info, _ := s.Generation(meta.Gen)
		got, err := os.ReadFile(filepath.Join(s.Dir(), info.File))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: streamed segment (%d bytes) differs from encodeSegment (%d bytes)", c.name, len(got), len(want))
		}
		if info.Bytes != int64(len(got)) {
			t.Errorf("%s: recorded %d bytes, file has %d", c.name, info.Bytes, len(got))
		}
	}

	// An empty key fails before a byte is written: no segment, no temp
	// file, no generation ID spent.
	next := s.Stats().NextGen
	if _, err := s.Append(testMeta(9), []Artifact{{Key: "ok"}, {Key: ""}}); err == nil {
		t.Fatal("Append accepted an artifact with an empty key")
	}
	if got := s.Stats().NextGen; got != next {
		t.Errorf("NextGen %d after a failed Append, want %d", got, next)
	}
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("failed Append left %s behind", e.Name())
		}
	}
}

// TestAppendAllocs holds what persisting a generation allocates well
// below the generation's size: the segment streams to its file through
// a small buffer instead of being assembled in memory. At 3 MiB of
// bodies (about DefaultConfig's 2.95 MB segment) an in-memory image
// alone would allocate all of it (measured: about 38 KiB, the write
// buffer and the manifest, with or without the race detector).
func TestAppendAllocs(t *testing.T) {
	var arts []Artifact
	body := bytes.Repeat([]byte{'a'}, 256<<10)
	for i := 0; i < 12; i++ {
		arts = append(arts, Artifact{Key: "k" + strings.Repeat("/", i), ContentType: "application/json", ETag: `"x"`, Body: body})
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(testMeta(1), arts); err != nil { // warm the manifest path
		t.Fatal(err)
	}
	const budget = 256 << 10
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	if _, err := s.Append(testMeta(2), arts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	got := ms.TotalAlloc - before
	t.Logf("Append of a %d-byte generation allocated %d B (budget %d)", 12*len(body), got, budget)
	if got > budget {
		t.Errorf("Append allocated %d B for a %d-byte generation, budget %d: the segment is assembled in memory", got, 12*len(body), budget)
	}
}
