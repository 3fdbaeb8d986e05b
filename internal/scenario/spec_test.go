package scenario

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"ipv4market/internal/replicate"
	"ipv4market/internal/serve"
	"ipv4market/internal/simulation"
)

func TestParseFullSpec(t *testing.T) {
	data := []byte(`{
		"name": "storm",
		"default": true,
		"seed": 42,
		"lirs": 20,
		"routing_days": 120,
		"price_shocks": [{"start": "2019-01-01", "end": "2019-07-01", "factor": 1.6}],
		"rpki_churn_storms": [{"start_day": 10, "end_day": 30, "drop_prob": 0.35, "stale_roa_fraction": 0.5}],
		"hijack_waves": [{"start_day": 12, "end_day": 24, "rate": 4.0}],
		"utilization": {"activity_mean": 0.4, "activity_jitter": 0.3}
	}`)
	spec, err := Parse(data, "storm.json")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if spec.Name != "storm" || !spec.Default || spec.Seed != 42 {
		t.Errorf("identity fields wrong: %+v", spec)
	}
	if !spec.Adversarial() {
		t.Error("spec with shocks+storms+waves not Adversarial")
	}

	cfg := spec.Config(simulation.DefaultConfig())
	if cfg.Seed != 42 || cfg.NumLIRs != 20 || cfg.RoutingDays != 120 {
		t.Errorf("Config overrides wrong: seed=%d lirs=%d days=%d", cfg.Seed, cfg.NumLIRs, cfg.RoutingDays)
	}
	if len(cfg.PriceShocks) != 1 || cfg.PriceShocks[0].Factor != 1.6 {
		t.Errorf("price shocks not mapped: %+v", cfg.PriceShocks)
	}
	wantStart := time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
	if !cfg.PriceShocks[0].Start.Equal(wantStart) {
		t.Errorf("shock start = %v, want %v", cfg.PriceShocks[0].Start, wantStart)
	}
	if len(cfg.RPKIChurnStorms) != 1 || cfg.RPKIChurnStorms[0].Window.EndDay != 30 ||
		cfg.RPKIChurnStorms[0].StaleROAFraction != 0.5 {
		t.Errorf("churn storms not mapped: %+v", cfg.RPKIChurnStorms)
	}
	if len(cfg.HijackWaves) != 1 || cfg.HijackWaves[0].Rate != 4.0 {
		t.Errorf("hijack waves not mapped: %+v", cfg.HijackWaves)
	}
	if cfg.ActivityMean != 0.4 || cfg.ActivityJitter != 0.3 {
		t.Errorf("utilization profile not mapped: mean=%g jitter=%g", cfg.ActivityMean, cfg.ActivityJitter)
	}
}

func TestConfigWithoutOverridesKeepsBase(t *testing.T) {
	base := simulation.DefaultConfig()
	spec := Spec{Name: "plain", Seed: 9}
	cfg := spec.Config(base)
	if cfg.NumLIRs != base.NumLIRs || cfg.RoutingDays != base.RoutingDays {
		t.Errorf("scale overridden without request: lirs=%d days=%d", cfg.NumLIRs, cfg.RoutingDays)
	}
	if cfg.Seed != 9 {
		t.Errorf("seed = %d, want 9", cfg.Seed)
	}
	if len(cfg.PriceShocks) != 0 || len(cfg.RPKIChurnStorms) != 0 || len(cfg.HijackWaves) != 0 {
		t.Errorf("knobs set without request: %+v", cfg)
	}
}

// TestValidationErrorsNameTheField drives each malformed spec through
// Parse and requires a structured error mentioning the offending field.
func TestValidationErrorsNameTheField(t *testing.T) {
	valid := `"name": "ok", "seed": 1`
	cases := []struct {
		label string
		body  string // full JSON document
		field string // must appear in the error text
	}{
		{"missing name", `{"seed": 1}`, "name"},
		{"uppercase name", `{"name": "Bad", "seed": 1}`, "name"},
		{"reserved name", `{"name": "replication", "seed": 1}`, "name"},
		{"long name", `{"name": "` + strings.Repeat("x", 40) + `", "seed": 1}`, "name"},
		{"zero seed", `{"name": "ok", "seed": 0}`, "seed"},
		{"negative seed", `{"name": "ok", "seed": -3}`, "seed"},
		{"negative lirs", `{` + valid + `, "lirs": -1}`, "lirs"},
		{"huge days", `{` + valid + `, "routing_days": 99999}`, "routing_days"},
		{"bad shock date", `{` + valid + `, "price_shocks": [{"start": "June 1", "end": "2019-07-01", "factor": 2}]}`, "price_shocks[0].start"},
		{"inverted shock window", `{` + valid + `, "price_shocks": [{"start": "2019-07-01", "end": "2019-01-01", "factor": 2}]}`, "price_shocks[0]"},
		{"zero shock factor", `{` + valid + `, "price_shocks": [{"start": "2019-01-01", "end": "2019-07-01", "factor": 0}]}`, "price_shocks[0].factor"},
		{"inverted storm window", `{` + valid + `, "rpki_churn_storms": [{"start_day": 30, "end_day": 10, "drop_prob": 0.5}]}`, "rpki_churn_storms[0]"},
		{"storm prob > 1", `{` + valid + `, "rpki_churn_storms": [{"start_day": 1, "end_day": 10, "drop_prob": 1.5}]}`, "drop_prob"},
		{"negative stale fraction", `{` + valid + `, "rpki_churn_storms": [{"start_day": 1, "end_day": 10, "stale_roa_fraction": -0.1}]}`, "stale_roa_fraction"},
		{"negative wave rate", `{` + valid + `, "hijack_waves": [{"start_day": 1, "end_day": 10, "rate": -2}]}`, "hijack_waves[0].rate"},
		{"inverted wave window", `{` + valid + `, "hijack_waves": [{"start_day": 5, "end_day": 5, "rate": 1}]}`, "hijack_waves[0]"},
		{"activity mean > 1", `{` + valid + `, "utilization": {"activity_mean": 1.5}}`, "activity_mean"},
		{"negative jitter", `{` + valid + `, "utilization": {"activity_jitter": -0.2}}`, "activity_jitter"},
		{"unknown key", `{` + valid + `, "prce_shocks": []}`, "prce_shocks"},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.body), tc.label+".json")
		if err == nil {
			t.Errorf("%s: Parse accepted invalid spec", tc.label)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %q does not name field %q", tc.label, err, tc.field)
		}
		if !strings.Contains(err.Error(), tc.label+".json") {
			t.Errorf("%s: error %q does not name the file", tc.label, err)
		}
	}
}

// TestReservedNamesCoverRoutes ties the hand-kept reservedNames list to
// the routes a world registers: every first path segment of them, and
// every segment under /v1/, is reserved, so no spec file can name a
// scenario that shadows an endpoint.
func TestReservedNamesCoverRoutes(t *testing.T) {
	srv, err := serve.New(testBase(), serve.Options{EnableAdmin: true})
	if err != nil {
		t.Fatal(err)
	}
	patterns := append(srv.Routes(), replicate.PatternGenerations, replicate.PatternSegment)
	for _, pattern := range patterns {
		_, path, _ := strings.Cut(pattern, " ")
		segs := strings.Split(strings.TrimPrefix(path, "/"), "/")
		names := segs[:1]
		if segs[0] == "v1" && len(segs) > 1 {
			names = segs[:2]
		}
		for _, name := range names {
			if !reservedNames[name] {
				t.Errorf("route %q: segment %q is not in reservedNames", pattern, name)
			}
		}
	}
}

// TestSpecAtLIRsCapBuilds builds the largest world validation accepts,
// through the whole snapshot pipeline, so the cap never promises a
// world the generator cannot build; one LIR more is rejected.
func TestSpecAtLIRsCapBuilds(t *testing.T) {
	spec, err := Parse([]byte(`{"name": "cap", "seed": 1, "lirs": `+strconv.Itoa(maxLIRs)+`}`), "cap.json")
	if err != nil {
		t.Fatalf("spec at the cap rejected: %v", err)
	}
	cfg := spec.Config(simulation.DefaultConfig())
	if cfg.NumLIRs != maxLIRs {
		t.Fatalf("NumLIRs = %d, want %d", cfg.NumLIRs, maxLIRs)
	}
	if _, err := serve.BuildSnapshotOpts(cfg, serve.BuildOptions{}); err != nil {
		t.Fatalf("world at the lirs cap does not build: %v", err)
	}

	_, err = Parse([]byte(`{"name": "over", "seed": 1, "lirs": `+strconv.Itoa(maxLIRs+1)+`}`), "over.json")
	var fe *FieldError
	if !errors.As(err, &fe) || fe.Field != "lirs" {
		t.Fatalf("lirs %d: got %v, want a lirs field error", maxLIRs+1, err)
	}
}

func TestMultipleErrorsAllReported(t *testing.T) {
	_, err := Parse([]byte(`{"name": "UPPER", "seed": 0, "lirs": -4}`), "multi.json")
	if err == nil {
		t.Fatal("Parse accepted a triply invalid spec")
	}
	for _, field := range []string{"name", "seed", "lirs"} {
		if !strings.Contains(err.Error(), field) {
			t.Errorf("joined error %q misses field %q", err, field)
		}
	}
}

func writeSpecs(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestLoadDirDuplicateNames(t *testing.T) {
	dir := writeSpecs(t, map[string]string{
		"a.json": `{"name": "same", "seed": 1}`,
		"b.json": `{"name": "same", "seed": 2}`,
	})
	_, err := LoadDir(dir)
	if err == nil || !strings.Contains(err.Error(), "already defined") {
		t.Fatalf("duplicate names accepted: %v", err)
	}
}

func TestLoadDirMultipleDefaults(t *testing.T) {
	dir := writeSpecs(t, map[string]string{
		"a.json": `{"name": "a", "seed": 1, "default": true}`,
		"b.json": `{"name": "b", "seed": 2, "default": true}`,
	})
	_, err := LoadDir(dir)
	if err == nil || !strings.Contains(err.Error(), "default") {
		t.Fatalf("two defaults accepted: %v", err)
	}
}

func TestLoadDirNoDefaultPicksFirst(t *testing.T) {
	dir := writeSpecs(t, map[string]string{
		"zz.json": `{"name": "zeta", "seed": 1}`,
		"aa.json": `{"name": "alpha", "seed": 2}`,
	})
	specs, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := DefaultName(specs); got != "alpha" {
		t.Errorf("default = %q, want the lexicographically first name %q", got, "alpha")
	}
}

func TestLoadDirEmpty(t *testing.T) {
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Fatal("empty directory accepted")
	}
}

// TestGoldenConfigsReplay loads the shipped example scenario directory —
// the same one the check.sh scenario gate boots — so the goldens can
// never rot out from under the docs.
func TestGoldenConfigsReplay(t *testing.T) {
	specs, err := LoadDir(filepath.Join("..", "..", "examples", "scenarios"))
	if err != nil {
		t.Fatalf("examples/scenarios: %v", err)
	}
	if len(specs) < 2 {
		t.Fatalf("examples/scenarios holds %d spec(s), want >= 2", len(specs))
	}
	if got := DefaultName(specs); got != "baseline" {
		t.Errorf("default = %q, want baseline", got)
	}
	adversarial := 0
	seen := make(map[int64]string, len(specs))
	for _, s := range specs {
		if s.Adversarial() {
			adversarial++
		}
		if prev, dup := seen[s.Seed]; dup {
			t.Errorf("scenarios %s and %s share seed %d; the matrix wants distinct worlds", prev, s.Name, s.Seed)
		}
		seen[s.Seed] = s.Name
	}
	if adversarial == 0 {
		t.Error("no adversarial scenario in examples/scenarios; the gate requires one")
	}
}
