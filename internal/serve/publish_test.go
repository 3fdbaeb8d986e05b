package serve

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPublishedSnapshotNotWritten pins the publication contract: once
// swap stores a snapshot, nothing writes its fields, so readers that
// load it without a lock always see one fixed value. Reader goroutines
// load Snapshot() and read Seq and Gen while RebuildAsync persists and
// publishes new generations. A write after the store (swap assigning
// Seq after st.Store, or a persist that runs after swap assigning Gen)
// races with those reads, and only the race detector sees that
// reliably: scripts/check.sh runs this test under -race, and a plain
// go test only smoke-tests it through the values the readers observe.
// After each rebuild the test waits until every reader has read the new
// snapshot, so each published generation is read at least once.
func TestPublishedSnapshotNotWritten(t *testing.T) {
	cfg := testConfig()
	srv, err := New(cfg, Options{BuildWorkers: 1, Store: openStore(t, t.TempDir())})
	if err != nil {
		t.Fatal(err)
	}
	const readers, rebuilds = 2, 2
	var seen [readers]atomic.Uint64 // the Seq each reader last read
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastSeq, lastGen uint64
			reported := false
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := srv.Snapshot()
				seq, gen := snap.Seq, snap.Gen
				if (seq < lastSeq || gen < lastGen || gen == 0) && !reported {
					t.Errorf("reader %d read seq=%d gen=%d after seq=%d gen=%d", i, seq, gen, lastSeq, lastGen)
					reported = true
				}
				lastSeq, lastGen = seq, gen
				seen[i].Store(seq)
				runtime.Gosched()
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for r := range rebuilds {
		if !srv.RebuildAsync(srv.rebuildConfig(cfg.Seed+int64(r)+1, true)) {
			t.Fatal("RebuildAsync declined")
		}
		srv.Wait()
		want := srv.Snapshot().Seq
		deadline := time.Now().Add(5 * time.Second)
		for i := range seen {
			for seen[i].Load() != want {
				if time.Now().After(deadline) {
					t.Fatalf("reader %d did not read seq %d", i, want)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}
