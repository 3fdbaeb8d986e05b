package store_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ipv4market/internal/serve"
	"ipv4market/internal/simulation"
	"ipv4market/internal/store"
)

// TestStreamedSegmentMatchesEncodeAtDefault persists the DefaultConfig
// generation marketd serves, about 3 MB of artifacts, and requires the
// streamed segment file to equal the in-memory encoder's image of the
// same meta and artifacts, byte for byte.
func TestStreamedSegmentMatchesEncodeAtDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the DefaultConfig world")
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := serve.New(simulation.DefaultConfig(), serve.Options{Store: st}); err != nil {
		t.Fatal(err)
	}
	info, ok := st.Latest()
	if !ok {
		t.Fatal("the build persisted no generation")
	}
	got, err := os.ReadFile(filepath.Join(st.Dir(), info.File))
	if err != nil {
		t.Fatal(err)
	}
	meta, arts, err := st.Load(info.Gen)
	if err != nil {
		t.Fatal(err)
	}
	want, err := store.EncodeSegment(meta, arts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d artifacts, %d-byte segment", len(arts), len(got))
	if !bytes.Equal(got, want) {
		t.Errorf("streamed segment (%d bytes) differs from EncodeSegment (%d bytes)", len(got), len(want))
	}
}
