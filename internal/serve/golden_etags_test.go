package serve_test

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ipv4market/internal/scenario"
	"ipv4market/internal/serve"
	"ipv4market/internal/simulation"
)

var updateETags = flag.Bool("update-etags", false, "rewrite testdata/*.golden from the current build")

// goldenWorld is one production-scale world the golden tests pin: the
// world marketd serves by default, or an examples/scenarios spec on it.
type goldenWorld struct {
	name string
	cfg  simulation.Config
	srv  *serve.Server
}

var (
	goldenOnce   sync.Once
	goldenWorlds []goldenWorld
	goldenErr    error
)

// productionWorlds builds simulation.DefaultConfig and every
// examples/scenarios spec on that base once per test binary, so both
// golden tests pin the same builds.
func productionWorlds(t *testing.T) []goldenWorld {
	t.Helper()
	goldenOnce.Do(func() {
		goldenWorlds = []goldenWorld{{name: "default", cfg: simulation.DefaultConfig()}}
		specs, err := scenario.LoadDir(filepath.Join("..", "..", "examples", "scenarios"))
		if err != nil {
			goldenErr = err
			return
		}
		for i := range specs {
			goldenWorlds = append(goldenWorlds, goldenWorld{
				name: "scenario/" + specs[i].Name,
				cfg:  specs[i].Config(simulation.DefaultConfig()),
			})
		}
		for i := range goldenWorlds {
			w := &goldenWorlds[i]
			if w.srv, err = serve.New(w.cfg, serve.Options{}); err != nil {
				goldenErr = fmt.Errorf("%s: %w", w.name, err)
				return
			}
		}
	})
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return goldenWorlds
}

// TestArtifactETagsGolden is the production-scale byte oracle: it builds
// the world marketd serves by default (simulation.DefaultConfig) and
// every examples/scenarios spec on that base, and compares the
// fingerprint (bodyFingerprint) of every persisted artifact against
// testdata/etags.golden. Any change to the simulation, the analysis
// pipelines or the encoders that moves a single served byte fails here.
// Each served artifact's stored ETag must also be the one its body
// derives (serve.ETagOf). Regenerate with -update-etags only for a
// change that means to move bytes.
func TestArtifactETagsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three production-scale worlds")
	}
	var got bytes.Buffer
	for _, w := range productionWorlds(t) {
		_, arts, err := serve.SnapshotRecord(w.srv.Snapshot())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		tags := make(map[string]string, len(arts))
		for _, a := range arts {
			if a.ETag != "" && a.ETag != serve.ETagOf(a.Body) {
				t.Errorf("%s %s %s: stored ETag %s, body derives %s", w.name, a.Key, a.ContentType, a.ETag, serve.ETagOf(a.Body))
			}
			tags[a.Key+" "+a.ContentType] = bodyFingerprint(a.Body)
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
	checkGolden(t, filepath.Join("testdata", "etags.golden"), got.Bytes())
}

// bodyFingerprint is the form the golden files pin each body in: the
// 64-bit FNV-1a hash in quoted, unpadded hex. It is the ETag the server
// served before tags took the CRC-32 form, so the golden files kept
// their bytes across that change. A 64-bit hash leaves a chance of about
// 2^-64 that a moved body keeps its line.
func bodyFingerprint(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return `"` + strconv.FormatUint(h.Sum64(), 16) + `"`
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update-etags, reporting each line either side lacks.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateETags {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-etags)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	reportMissing(t, "built: ", string(got), string(want))
	reportMissing(t, "golden:", string(want), string(got))
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
