package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"ipv4market/internal/scenario"
	"ipv4market/internal/simulation"
)

var smallWorld = []string{"-lirs", "14", "-days", "40"}

func TestSelfcheckPasses(t *testing.T) {
	var buf bytes.Buffer
	args := append([]string{"-selfcheck"}, smallWorld...)
	if err := run(&buf, args); err != nil {
		t.Fatalf("selfcheck failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "selfcheck passed") {
		t.Errorf("output lacks pass marker:\n%s", out)
	}
	for _, path := range selfcheckPaths {
		if !strings.Contains(out, path+" ") && !strings.Contains(out, path+"\n") {
			t.Errorf("selfcheck did not report %s", path)
		}
	}
}

// TestSelfcheckWithDataDir drives the durable selfcheck: persist,
// shut down, warm-start over the same directory, verify continuity.
func TestSelfcheckWithDataDir(t *testing.T) {
	var buf bytes.Buffer
	dir := t.TempDir()
	args := append([]string{"-selfcheck", "-data-dir", dir}, smallWorld...)
	if err := run(&buf, args); err != nil {
		t.Fatalf("durable selfcheck failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, marker := range []string{
		"/v1/history",
		"?gen=1",
		"selfcheck restart",
		"ETag continuity",
		"restart continuity",
	} {
		if !strings.Contains(out, marker) {
			t.Errorf("durable selfcheck output lacks %q:\n%s", marker, out)
		}
	}

	// The default world's segments sit at the data dir's root, where a
	// single-world marketd has always kept them, and a second run over
	// the same directory must warm-start from them (the store already
	// holds generation 1) and still pass end to end.
	if segs, err := filepath.Glob(filepath.Join(dir, "*.seg")); err != nil || len(segs) == 0 {
		t.Errorf("no segments at the data dir root %s (err %v)", dir, err)
	}
	if _, err := os.Stat(filepath.Join(dir, scenario.ImplicitName)); !os.IsNotExist(err) {
		t.Errorf("implicit world made a %s subdirectory (stat err %v)", scenario.ImplicitName, err)
	}
	buf.Reset()
	if err := run(&buf, args); err != nil {
		t.Fatalf("selfcheck over existing store failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "warm start: restored generation") {
		t.Errorf("second run did not warm-start:\n%s", buf.String())
	}
}

// TestFollowerFlagValidation pins the follower-mode flag contract:
// -follow needs a local store, and -selfcheck targets leaders only.
func TestFollowerFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-follow", "http://127.0.0.1:1"}); err == nil ||
		!strings.Contains(err.Error(), "-follow requires -data-dir") {
		t.Errorf("-follow without -data-dir: err = %v", err)
	}
	if err := run(&buf, []string{"-follow", "http://127.0.0.1:1", "-data-dir", t.TempDir(), "-selfcheck"}); err == nil ||
		!strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("-follow with -selfcheck: err = %v", err)
	}
}

// TestSelfcheckVerifiesSegments asserts the durable selfcheck includes
// the store Verify pass and the replication listing.
func TestSelfcheckVerifiesSegments(t *testing.T) {
	var buf bytes.Buffer
	args := append([]string{"-selfcheck", "-data-dir", t.TempDir()}, smallWorld...)
	if err := run(&buf, args); err != nil {
		t.Fatalf("durable selfcheck failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, marker := range []string{
		"selfcheck verify: 1 segment(s) re-checksummed clean",
		"/v1/replication/generations",
	} {
		if !strings.Contains(out, marker) {
			t.Errorf("selfcheck output lacks %q:\n%s", marker, out)
		}
	}
}

func TestBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-nosuchflag"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

// TestImplicitWorldBounds holds -seed/-lirs/-days to the bounds a spec
// file has: an out-of-range world fails at flag parsing, not at boot,
// with or without -scenarios (where -lirs/-days set the base scale).
func TestImplicitWorldBounds(t *testing.T) {
	for _, args := range [][]string{
		{"-lirs", "260"},
		{"-lirs", "260", "-scenarios", filepath.Join("..", "..", "examples", "scenarios")},
		{"-days", "20001"},
		{"-seed", "-2"},
	} {
		_, err := parseFlags(io.Discard, args)
		if err == nil {
			t.Errorf("%v accepted", args)
			continue
		}
		field := strings.TrimPrefix(args[0], "-")
		if !strings.Contains(err.Error(), field) {
			t.Errorf("%v: error %q does not name %s", args, err, field)
		}
	}
	if _, err := parseFlags(io.Discard, []string{"-lirs", "200", "-days", "20000"}); err != nil {
		t.Errorf("world at the spec bounds rejected: %v", err)
	}
}

// TestErrorsCarryOnePrefix pins what main prints: run's error as is,
// which starts with exactly one "marketd: ".
func TestErrorsCarryOnePrefix(t *testing.T) {
	for _, args := range [][]string{
		{"-lirs", "260", "-seed", "2", "-days", "40"},
		{"-nosuchflag"},
		{"-follow", "http://127.0.0.1:1"},
		append([]string{"-listen", "256.0.0.1:http"}, smallWorld...),
	} {
		err := run(io.Discard, args)
		if err == nil {
			t.Errorf("%v accepted", args)
			continue
		}
		if msg := err.Error(); !strings.HasPrefix(msg, "marketd: ") || strings.Count(msg, "marketd:") != 1 {
			t.Errorf("%v: error %q, want exactly one leading marketd: prefix", args, msg)
		}
	}
}

func TestBadListenAddress(t *testing.T) {
	var buf bytes.Buffer
	args := append([]string{"-listen", "256.0.0.1:http"}, smallWorld...)
	if err := run(&buf, args); err == nil {
		t.Error("invalid listen address accepted")
	}
}

// TestParseMaxLag pins the -max-lag grammar: empty disables both
// bounds, an integer bounds generations, a duration bounds staleness.
func TestParseMaxLag(t *testing.T) {
	gens, age, err := parseMaxLag("")
	if err != nil || gens != -1 || age != 0 {
		t.Errorf("empty: (%d, %v, %v), want (-1, 0, nil)", gens, age, err)
	}
	gens, age, err = parseMaxLag("2")
	if err != nil || gens != 2 || age != 0 {
		t.Errorf("\"2\": (%d, %v, %v), want (2, 0, nil)", gens, age, err)
	}
	gens, age, err = parseMaxLag("30s")
	if err != nil || gens != -1 || age != 30*time.Second {
		t.Errorf("\"30s\": (%d, %v, %v), want (-1, 30s, nil)", gens, age, err)
	}
	for _, bad := range []string{"-1", "-5s", "0s", "soon"} {
		if _, _, err := parseMaxLag(bad); err == nil {
			t.Errorf("parseMaxLag(%q) accepted", bad)
		}
	}
}

// TestMaxLagRequiresFollower keeps -max-lag a follower-only flag.
func TestMaxLagRequiresFollower(t *testing.T) {
	var buf bytes.Buffer
	args := append([]string{"-max-lag", "2", "-selfcheck"}, smallWorld...)
	if err := run(&buf, args); err == nil {
		t.Error("-max-lag without -follow accepted")
	} else if !strings.Contains(err.Error(), "-max-lag") {
		t.Errorf("error %v does not name the flag", err)
	}
}

// TestImplicitSpecConfig pins that the implicit world's config is the
// one the flags build, for every combination of -seed/-lirs/-days.
func TestImplicitSpecConfig(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"-seed", "42"},
		{"-lirs", "14"},
		{"-days", "40"},
		{"-seed", "7", "-lirs", "14", "-days", "40"},
	} {
		d, err := parseFlags(io.Discard, args)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		want := simulation.DefaultConfig()
		for i := 0; i+1 < len(args); i += 2 {
			n, _ := strconv.Atoi(args[i+1])
			switch args[i] {
			case "-seed":
				want.Seed = int64(n)
			case "-lirs":
				want.NumLIRs = n
			case "-days":
				want.RoutingDays = n
			}
		}
		if len(d.specs) != 1 || d.specs[0].Name != scenario.ImplicitName || !d.specs[0].Default {
			t.Fatalf("%v: specs = %+v, want the one implicit default spec", args, d.specs)
		}
		if got := d.specs[0].Config(d.opts.BaseCfg); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: implicit spec config = %+v, want %+v", args, got, want)
		}
	}
}

// TestImplicitWorldContract pins what single-world clients rely on
// without -scenarios: the listing names exactly "default" at the served
// generation, a bare POST /admin/rebuild advances it, and
// /v1/default/... is byte- and ETag-identical to the bare path.
func TestImplicitWorldContract(t *testing.T) {
	dir := t.TempDir()
	args := append([]string{"-admin", "-data-dir", dir}, smallWorld...)
	d, err := parseFlags(io.Discard, args)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := d.open(context.Background(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Wait()

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		reg.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body.String())
		}
		return rec
	}
	listedGen := func() uint64 {
		var listing struct {
			Default   string `json:"default"`
			Scenarios []struct {
				Name string `json:"name"`
				Gen  uint64 `json:"gen"`
			} `json:"scenarios"`
		}
		if err := json.Unmarshal(get("/v1/scenarios").Body.Bytes(), &listing); err != nil {
			t.Fatal(err)
		}
		if listing.Default != "default" || len(listing.Scenarios) != 1 || listing.Scenarios[0].Name != "default" {
			t.Fatalf("listing = %+v, want exactly the default world", listing)
		}
		return listing.Scenarios[0].Gen
	}

	gen := listedGen()
	if served := reg.Default().Snapshot().Gen; gen != served || gen == 0 {
		t.Errorf("listed gen %d, serving gen %d", gen, served)
	}

	bare, prefixed := get("/v1/table1"), get("/v1/default/table1")
	if !bytes.Equal(bare.Body.Bytes(), prefixed.Body.Bytes()) || bare.Header().Get("ETag") != prefixed.Header().Get("ETag") {
		t.Error("/v1/default/table1 is not byte- and ETag-identical to /v1/table1")
	}

	rec := httptest.NewRecorder()
	reg.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/rebuild", nil))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /admin/rebuild: status %d, want 202", rec.Code)
	}
	reg.Wait()
	if got := listedGen(); got <= gen {
		t.Errorf("gen %d did not advance past %d after POST /admin/rebuild", got, gen)
	}
}
