package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestOpenArtifactServesExactBytes checks the reader against every
// artifact Append wrote: full reads, seek-based partial reads (the Range
// path), and ReadAt.
func TestOpenArtifactServesExactBytes(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in := testArtifacts()
	meta, err := s.Append(testMeta(1), in)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range in {
		r, err := s.OpenArtifact(meta.Gen, want.Key, want.ContentType)
		if err != nil {
			t.Fatalf("OpenArtifact(%q, %q): %v", want.Key, want.ContentType, err)
		}
		if r.Info.ETag != want.ETag {
			t.Errorf("%q stored ETag %q, want %q", want.Key, r.Info.ETag, want.ETag)
		}
		if r.Size() != int64(len(want.Body)) {
			t.Errorf("%q size %d, want %d", want.Key, r.Size(), len(want.Body))
		}
		got, err := io.ReadAll(r)
		if err != nil {
			t.Fatalf("read %q: %v", want.Key, err)
		}
		if !bytes.Equal(got, want.Body) {
			t.Errorf("%q body differs from what Append wrote", want.Key)
		}
		// Range-style partial read: seek into the body and read a slice.
		if len(want.Body) > 2 {
			if _, err := r.Seek(1, io.SeekStart); err != nil {
				t.Fatal(err)
			}
			part := make([]byte, len(want.Body)-2)
			if _, err := io.ReadFull(r, part); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(part, want.Body[1:len(want.Body)-1]) {
				t.Errorf("%q partial read differs", want.Key)
			}
			at := make([]byte, 2)
			if _, err := r.ReadAt(at, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(at, want.Body[:2]) {
				t.Errorf("%q ReadAt differs", want.Key)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenArtifactAfterReopen checks a reopened store reads back the
// bytes an earlier handle appended (TestSegmentRoundTrip reads through
// the handle that wrote them).
func TestOpenArtifactAfterReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	in := testArtifacts()
	meta, err := s.Append(testMeta(1), in)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s2.OpenArtifact(meta.Gen, in[0].Key, in[0].ContentType)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, in[0].Body) {
		t.Error("body differs after reopen")
	}
}

// TestOpenArtifactAfterImport checks an imported segment reads back the
// leader's bodies byte for byte (TestImportSegment checks only the
// artifact count).
func TestOpenArtifactAfterImport(t *testing.T) {
	leader, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in := testArtifacts()
	meta, err := leader.Append(testMeta(1), in)
	if err != nil {
		t.Fatal(err)
	}
	path, ok := leader.SegmentPath(meta.Gen)
	if !ok {
		t.Fatal("no segment path")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	follower, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := follower.ImportSegment(meta.Gen, raw); err != nil {
		t.Fatal(err)
	}
	r, err := follower.OpenArtifact(meta.Gen, in[1].Key, in[1].ContentType)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, in[1].Body) {
		t.Error("imported body differs from the leader's")
	}
}

// TestOpenArtifactErrors pins the error contract: unknown generation,
// unknown key, and wrong content type are ErrNotFound; a deleted
// segment file is an I/O error, not ErrNotFound.
func TestOpenArtifactErrors(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	in := testArtifacts()
	meta, err := s.Append(testMeta(1), in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenArtifact(meta.Gen+99, in[0].Key, in[0].ContentType); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown generation: %v, want ErrNotFound", err)
	}
	if _, err := s.OpenArtifact(meta.Gen, "nope", in[0].ContentType); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown key: %v, want ErrNotFound", err)
	}
	if _, err := s.OpenArtifact(meta.Gen, in[0].Key, "application/x-nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown content type: %v, want ErrNotFound", err)
	}
	g, ok := s.Generation(meta.Gen)
	if !ok {
		t.Fatal("generation missing")
	}
	if err := os.Remove(filepath.Join(dir, g.File)); err != nil {
		t.Fatal(err)
	}
	_, err = s.OpenArtifact(meta.Gen, in[0].Key, in[0].ContentType)
	if err == nil {
		t.Fatal("OpenArtifact succeeded on a deleted segment")
	}
	if errors.Is(err, ErrNotFound) {
		t.Errorf("deleted segment reported ErrNotFound: %v", err)
	}
}
