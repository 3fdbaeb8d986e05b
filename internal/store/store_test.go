package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// testMeta returns a metadata record with every field populated, so
// round-trip tests cover the full schema.
func testMeta(seed int64) Meta {
	return Meta{
		Created:     time.Date(2020, 6, 1, 12, 30, 0, 0, time.UTC),
		Seed:        seed,
		NumLIRs:     14,
		RoutingDays: 40,
		Workers:     4,
		BuildNS:     123456789,
		Stages:      []Stage{{Name: "study", NS: 1000}, {Name: "table1", NS: 200}},
		Transfers:   321,
	}
}

// testArtifacts returns a representative artifact set: JSON and CSV
// encodings of one key, a JSON-only key, and an auxiliary state key.
func testArtifacts() []Artifact {
	return []Artifact{
		{Key: "table1", ContentType: "application/json", ETag: `"abc"`, Body: []byte(`{"rows":[]}` + "\n")},
		{Key: "table1", ContentType: "text/csv", ETag: `"def"`, Body: []byte("rir,depleted\n")},
		{Key: "headline", ContentType: "application/json", ETag: `"123"`, Body: []byte(`{"n":1}` + "\n")},
		{Key: "_state/pricecells", ContentType: "application/json", ETag: "", Body: []byte(`[]`)},
	}
}

// TestSegmentRoundTrip pins the format: what Append writes, Load reads
// back bit-for-bit — keys, content types, ETags, bodies, metadata.
func TestSegmentRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in := testArtifacts()
	meta, err := s.Append(testMeta(42), in)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Gen != 1 {
		t.Fatalf("first generation = %d, want 1", meta.Gen)
	}
	got, arts, err := s.Load(meta.Gen)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 42 || got.NumLIRs != 14 || got.RoutingDays != 40 || got.Transfers != 321 {
		t.Errorf("meta round trip: %+v", got)
	}
	if !got.Created.Equal(testMeta(42).Created) {
		t.Errorf("created %v, want %v", got.Created, testMeta(42).Created)
	}
	if len(got.Stages) != 2 || got.Stages[0].Name != "study" || got.Stages[0].NS != 1000 {
		t.Errorf("stages round trip: %+v", got.Stages)
	}
	if len(arts) != len(in) {
		t.Fatalf("%d artifacts, want %d", len(arts), len(in))
	}
	for i, a := range arts {
		w := in[i]
		if a.Key != w.Key || a.ContentType != w.ContentType || a.ETag != w.ETag {
			t.Errorf("artifact[%d] header = %q/%q/%q, want %q/%q/%q",
				i, a.Key, a.ContentType, a.ETag, w.Key, w.ContentType, w.ETag)
		}
		if !bytes.Equal(a.Body, w.Body) {
			t.Errorf("artifact[%d] %q body differs", i, a.Key)
		}
	}
}

// TestEncodeSegmentDeterministic pins byte-identical encoding for
// identical inputs — segments are content-addressable by their CRC.
// TestETagFormat holds ETag to the form the replication leader served
// segments under before the formatter moved here, fmt's "%08x-%d" quoted,
// at the edges of both fields.
func TestETagFormat(t *testing.T) {
	for _, crc := range []uint32{0, 1, 0xa, 0xdeadbeef, 0xffffffff} {
		for _, size := range []int64{0, 1, 945245, 1<<63 - 1} {
			if got, want := ETag(crc, size), fmt.Sprintf("%q", fmt.Sprintf("%08x-%d", crc, size)); got != want {
				t.Errorf("ETag(%#x, %d) = %s, want %s", crc, size, got, want)
			}
		}
	}
}

func TestEncodeSegmentDeterministic(t *testing.T) {
	m := testMeta(7)
	m.Gen = 3
	a, err := encodeSegment(m, testArtifacts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := encodeSegment(m, testArtifacts())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("identical inputs encoded to different segment bytes")
	}
}

// TestAppendAssignsMonotonicGenerations checks ID assignment across
// appends and a reopen.
func TestAppendAssignsMonotonicGenerations(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for want := uint64(1); want <= 3; want++ {
		meta, err := s.Append(testMeta(int64(want)), testArtifacts())
		if err != nil {
			t.Fatal(err)
		}
		if meta.Gen != want {
			t.Fatalf("generation = %d, want %d", meta.Gen, want)
		}
	}

	// Reopen: the scan must find all three and continue the sequence.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	gens := s2.Generations()
	if len(gens) != 3 {
		t.Fatalf("reopened store has %d generations, want 3", len(gens))
	}
	latest, ok := s2.Latest()
	if !ok || latest.Gen != 3 {
		t.Fatalf("latest = %+v ok=%v, want gen 3", latest, ok)
	}
	meta, err := s2.Append(testMeta(99), testArtifacts())
	if err != nil {
		t.Fatal(err)
	}
	if meta.Gen != 4 {
		t.Errorf("post-reopen generation = %d, want 4", meta.Gen)
	}
	if st := s2.Stats(); st.RecoveredGenerations != 3 || st.Segments != 4 || st.Bytes <= 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestCompactTo checks retention: oldest segments go, newest stay, IDs
// keep advancing, and compacted generations are gone from Load.
func TestCompactTo(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Append(testMeta(int64(i)), testArtifacts()); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := s.CompactTo(2)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 {
		t.Fatalf("removed %d segments, want 3", removed)
	}
	gens := s.Generations()
	if len(gens) != 2 || gens[0].Gen != 4 || gens[1].Gen != 5 {
		t.Fatalf("surviving generations: %+v", gens)
	}
	if _, _, err := s.Load(2); !errors.Is(err, ErrNotFound) {
		t.Errorf("Load(compacted) error = %v, want ErrNotFound", err)
	}
	if _, _, err := s.Load(5); err != nil {
		t.Errorf("Load(newest) after compaction: %v", err)
	}
	// IDs must not be reused after compaction, even across a reopen.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := s2.Append(testMeta(9), testArtifacts())
	if err != nil {
		t.Fatal(err)
	}
	if meta.Gen != 6 {
		t.Errorf("post-compaction generation = %d, want 6", meta.Gen)
	}
	if st := s2.Stats(); st.NextGen != 7 {
		t.Errorf("next_gen = %d, want 7", st.NextGen)
	}
	// keep < 1 disables retention.
	if n, err := s2.CompactTo(0); err != nil || n != 0 {
		t.Errorf("CompactTo(0) = %d, %v; want no-op", n, err)
	}
}

// TestVerify pins the re-checksum audit: a clean segment verifies, a
// flipped byte is reported as corruption (without quarantining the
// file), and unknown generations answer ErrNotFound.
func TestVerify(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := s.Append(testMeta(5), testArtifacts())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(meta.Gen); err != nil {
		t.Fatalf("Verify(clean) = %v", err)
	}
	if err := s.Verify(99); !errors.Is(err, ErrNotFound) {
		t.Errorf("Verify(unknown) = %v, want ErrNotFound", err)
	}

	// Flip one body byte on disk; Verify must notice and must not rename
	// the file (it is an audit, not a recovery pass).
	path := filepath.Join(dir, segName(meta.Gen))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = s.Verify(meta.Gen)
	if err == nil {
		t.Fatal("Verify accepted a flipped byte")
	}
	if !IsCorrupt(err) {
		t.Errorf("Verify(corrupt) = %v, want IsCorrupt", err)
	}
	if _, statErr := os.Stat(path); statErr != nil {
		t.Errorf("Verify moved the segment file: %v", statErr)
	}
}

// TestImportSegment drives the follower-side install path: verified
// bytes become a live generation with the ID ratchet advanced, corrupt
// and mismatched bytes are rejected without touching disk, and
// re-importing is an idempotent no-op.
func TestImportSegment(t *testing.T) {
	// A "leader" produces the wire bytes.
	leader, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta, err := leader.Append(testMeta(11), testArtifacts())
	if err != nil {
		t.Fatal(err)
	}
	path, ok := leader.SegmentPath(meta.Gen)
	if !ok {
		t.Fatal("SegmentPath missing for a live generation")
	}
	wire, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	followerDir := t.TempDir()
	f, err := Open(followerDir)
	if err != nil {
		t.Fatal(err)
	}
	info, err := f.ImportSegment(meta.Gen, wire)
	if err != nil {
		t.Fatal(err)
	}
	if info.Gen != meta.Gen || info.Bytes != int64(len(wire)) {
		t.Fatalf("imported info = %+v", info)
	}
	got, arts, err := f.Load(meta.Gen)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 11 || len(arts) != len(testArtifacts()) {
		t.Errorf("imported generation: meta %+v, %d artifacts", got, len(arts))
	}
	if err := f.Verify(meta.Gen); err != nil {
		t.Errorf("Verify(imported) = %v", err)
	}
	if st := f.Stats(); st.ImportedSegments != 1 || st.NextGen != meta.Gen+1 {
		t.Errorf("stats after import = %+v", st)
	}

	// Idempotent re-import.
	if _, err := f.ImportSegment(meta.Gen, wire); err != nil {
		t.Fatalf("re-import: %v", err)
	}
	if st := f.Stats(); st.Segments != 1 {
		t.Errorf("re-import duplicated the segment: %+v", st)
	}

	// Corrupt bytes: rejected, IsCorrupt, nothing written.
	bad := append([]byte(nil), wire...)
	bad[len(bad)/3] ^= 0x01
	if _, err := f.ImportSegment(meta.Gen+1, bad); !IsCorrupt(err) {
		t.Errorf("import of flipped bytes = %v, want IsCorrupt", err)
	}
	// Gen mismatch between the name and the embedded metadata: also
	// corruption (a leader bug or a swapped download must never install).
	if _, err := f.ImportSegment(meta.Gen+7, wire); !IsCorrupt(err) {
		t.Errorf("import under wrong ID = %v, want IsCorrupt", err)
	}
	if _, err := f.ImportSegment(0, wire); err == nil {
		t.Error("import of generation 0 accepted")
	}
	if st := f.Stats(); st.Segments != 1 {
		t.Errorf("failed imports changed the store: %+v", st)
	}

	// The imported generation survives a reopen and keeps the ratchet.
	f2, err := Open(followerDir)
	if err != nil {
		t.Fatal(err)
	}
	if latest, ok := f2.Latest(); !ok || latest.Gen != meta.Gen {
		t.Fatalf("reopened follower latest = %+v ok=%v", latest, ok)
	}
	if st := f2.Stats(); st.NextGen != meta.Gen+1 {
		t.Errorf("reopened next_gen = %d, want %d", st.NextGen, meta.Gen+1)
	}
}

// TestLoadUnknownGeneration pins the ErrNotFound contract.
func TestLoadUnknownGeneration(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load(12); !errors.Is(err, ErrNotFound) {
		t.Errorf("error = %v, want ErrNotFound", err)
	}
	if _, ok := s.Latest(); ok {
		t.Error("empty store reports a latest generation")
	}
}

// TestManifestRebuiltFromScan deletes and corrupts the manifest; the
// store must rebuild it from the segment files alone.
func TestManifestRebuiltFromScan(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(testMeta(1), testArtifacts()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(testMeta(2), testArtifacts()); err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string]func(string) error{
		"deleted": os.Remove,
		"corrupt": func(p string) error { return os.WriteFile(p, []byte("{nope"), 0o644) },
	} {
		t.Run(name, func(t *testing.T) {
			if err := mutate(filepath.Join(dir, manifestName)); err != nil {
				t.Fatal(err)
			}
			s2, err := Open(dir)
			if err != nil {
				t.Fatalf("open with %s manifest: %v", name, err)
			}
			if got := len(s2.Generations()); got != 2 {
				t.Fatalf("recovered %d generations, want 2", got)
			}
			if latest, _ := s2.Latest(); latest.Gen != 2 {
				t.Errorf("latest = %d, want 2", latest.Gen)
			}
			if st := s2.Stats(); st.NextGen != 3 {
				t.Errorf("next_gen = %d, want 3", st.NextGen)
			}
		})
	}
}

// TestConcurrentReadersDuringAppend hammers reads while generations are
// appended and compacted; run under -race by scripts/check.sh.
func TestConcurrentReadersDuringAppend(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(testMeta(0), testArtifacts()); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	errc := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() { // coordinated: drained via errc after close(stop)
			for {
				select {
				case <-stop:
					errc <- nil
					return
				default:
				}
				latest, ok := s.Latest()
				if !ok {
					errc <- fmt.Errorf("store went empty")
					return
				}
				if _, _, err := s.Load(latest.Gen); err != nil && !errors.Is(err, ErrNotFound) {
					// ErrNotFound is a legal race with compaction; any
					// other failure is a real bug.
					errc <- fmt.Errorf("load gen %d: %w", latest.Gen, err)
					return
				}
				s.Stats()
			}
		}()
	}
	for i := 1; i < 8; i++ {
		if _, err := s.Append(testMeta(int64(i)), testArtifacts()); err != nil {
			t.Fatal(err)
		}
		if _, err := s.CompactTo(3); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	for i := 0; i < 4; i++ {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
}

// TestGenInfoCRCMatchesFile checks that every listing entry carries the
// CRC-32 of its whole segment file, however the entry was made: by
// Append's stream, by Open's scan of a store written earlier, and by
// ImportSegment's check of received bytes.
func TestGenInfoCRCMatchesFile(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 2; seed++ {
		if _, err := s.Append(testMeta(seed), testArtifacts()); err != nil {
			t.Fatal(err)
		}
	}
	check := func(how string, st *Store) {
		t.Helper()
		gens := st.Generations()
		if len(gens) != 2 {
			t.Fatalf("%s: %d generations, want 2", how, len(gens))
		}
		for _, g := range gens {
			data, err := os.ReadFile(filepath.Join(st.Dir(), g.File))
			if err != nil {
				t.Fatal(err)
			}
			if want := crc32.ChecksumIEEE(data); g.CRC32 != want || g.Bytes != int64(len(data)) {
				t.Errorf("%s: generation %d lists crc %08x and %d bytes, file has %08x and %d",
					how, g.Gen, g.CRC32, g.Bytes, want, len(data))
			}
		}
	}
	check("append", s)
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	check("open", reopened)
	follower, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range s.Generations() {
		data, err := os.ReadFile(filepath.Join(dir, g.File))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := follower.ImportSegment(g.Gen, data); err != nil {
			t.Fatal(err)
		}
	}
	check("import", follower)
}
