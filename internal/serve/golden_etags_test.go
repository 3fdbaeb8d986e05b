package serve_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ipv4market/internal/scenario"
	"ipv4market/internal/serve"
	"ipv4market/internal/simulation"
)

var updateETags = flag.Bool("update-etags", false, "rewrite testdata/etags.golden from the current build")

// TestArtifactETagsGolden is the production-scale byte oracle: it builds
// the world marketd serves by default (simulation.DefaultConfig) and
// every examples/scenarios spec on that base, and compares the entity
// tag of every persisted artifact against testdata/etags.golden. Any
// change to the simulation, the analysis pipelines or the encoders that
// moves a single served byte fails here. Regenerate with -update-etags
// only for a change that means to move bytes.
func TestArtifactETagsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three production-scale worlds")
	}
	type world struct {
		name string
		cfg  simulation.Config
	}
	worlds := []world{{"default", simulation.DefaultConfig()}}
	specs, err := scenario.LoadDir(filepath.Join("..", "..", "examples", "scenarios"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		worlds = append(worlds, world{"scenario/" + specs[i].Name, specs[i].Config(simulation.DefaultConfig())})
	}

	var got bytes.Buffer
	for _, w := range worlds {
		snap, err := serve.BuildSnapshot(w.cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		tags, err := serve.ArtifactETags(snap)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		keys := make([]string, 0, len(tags))
		for k := range tags {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&got, "%s %s %s\n", w.name, k, tags[k])
		}
	}

	path := filepath.Join("testdata", "etags.golden")
	if *updateETags {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-etags)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	reportMissing(t, "built: ", got.String(), string(want))
	reportMissing(t, "golden:", string(want), got.String())
}

// reportMissing flags each line of a that b lacks.
func reportMissing(t *testing.T, label, a, b string) {
	t.Helper()
	in := make(map[string]bool)
	for _, l := range strings.Split(b, "\n") {
		in[l] = true
	}
	for _, l := range strings.Split(strings.TrimSpace(a), "\n") {
		if !in[l] {
			t.Errorf("%s %s", label, l)
		}
	}
}
