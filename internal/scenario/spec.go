// Package scenario is the multi-tenant world manager: it parses and
// validates declarative scenario configs (name, seed, world scale, and
// adversarial knobs — price shocks, RPKI churn/stale-ROA storms, hijack
// waves, a utilization profile) into Specs, and its Registry owns one
// serving world per scenario, each with its own snapshot pipeline,
// namespaced store generations, and replication stream.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"time"

	"ipv4market/internal/simulation"
)

// FieldError is one validation failure, naming the offending config
// field so operators can fix the file without reading source.
type FieldError struct {
	File  string // config file the spec came from ("" when parsed from memory)
	Field string // dotted field path, e.g. "price_shocks[0].factor"
	Msg   string
}

// Error renders "file: field: msg" with empty parts elided.
func (e *FieldError) Error() string {
	var b strings.Builder
	if e.File != "" {
		b.WriteString(e.File)
		b.WriteString(": ")
	}
	if e.Field != "" {
		b.WriteString(e.Field)
		b.WriteString(": ")
	}
	b.WriteString(e.Msg)
	return b.String()
}

// Spec is one validated scenario configuration. The JSON schema rejects
// unknown keys, so a typo fails loudly instead of silently configuring
// nothing.
type Spec struct {
	// Name keys the scenario everywhere: the /v1/{name}/... route
	// prefix, the store subdirectory, and the /varz section.
	Name string `json:"name"`
	// Default marks the scenario the bare /v1/... paths alias. At most
	// one spec in a directory may set it; with none set, the
	// lexicographically first name becomes the default.
	Default bool `json:"default,omitempty"`
	// Seed is the simulation seed. Required and >= 1, so two scenarios
	// never share a world by accident of a zero value.
	Seed int64 `json:"seed"`
	// LIRs and RoutingDays override the base world scale when positive.
	LIRs        int `json:"lirs,omitempty"`
	RoutingDays int `json:"routing_days,omitempty"`

	PriceShocks     []PriceShockSpec `json:"price_shocks,omitempty"`
	RPKIChurnStorms []ChurnStormSpec `json:"rpki_churn_storms,omitempty"`
	HijackWaves     []HijackWaveSpec `json:"hijack_waves,omitempty"`
	Utilization     *UtilizationSpec `json:"utilization,omitempty"`
}

// PriceShockSpec multiplies broker-market prices by Factor for deals in
// [Start, End), dates as YYYY-MM-DD.
type PriceShockSpec struct {
	Start  string  `json:"start"`
	End    string  `json:"end"`
	Factor float64 `json:"factor"`
}

// ChurnStormSpec degrades RPKI publication over the routing-window day
// range [StartDay, EndDay): the per-day ROA drop probability rises to
// DropProb, and StaleROAFraction of the delegations with no matching
// routed announcement (ended or never-routed leases) surface as stale
// authorizations while the storm lasts.
type ChurnStormSpec struct {
	StartDay         int     `json:"start_day"`
	EndDay           int     `json:"end_day"`
	DropProb         float64 `json:"drop_prob"`
	StaleROAFraction float64 `json:"stale_roa_fraction"`
}

// HijackWaveSpec replaces the baseline hijack rate with Rate over
// [StartDay, EndDay).
type HijackWaveSpec struct {
	StartDay int     `json:"start_day"`
	EndDay   int     `json:"end_day"`
	Rate     float64 `json:"rate"`
}

// UtilizationSpec shapes the active-address estimate: the mean activity
// fraction of a routed block and the jitter around it.
type UtilizationSpec struct {
	ActivityMean   float64 `json:"activity_mean"`
	ActivityJitter float64 `json:"activity_jitter"`
}

// Adversarial reports whether the spec configures any attack or shock
// knob — the fleet gate requires at least one such world.
func (s *Spec) Adversarial() bool {
	return len(s.PriceShocks) > 0 || len(s.RPKIChurnStorms) > 0 || len(s.HijackWaves) > 0
}

// nameRE bounds scenario names to safe path segments: they appear in
// URLs, directory names, and /varz keys.
var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9_-]{0,31}$`)

// reservedNames are path segments the router already owns under /v1/
// (artifact endpoints, the replication surface, the listing itself) or
// at the root; a scenario named after one would be unroutable.
var reservedNames = map[string]bool{
	"table1": true, "figures": true, "prices": true, "transfers": true,
	"delegations": true, "leasing": true, "headline": true, "history": true,
	"asof": true, "utilization": true, "rpki": true, "scenarios": true,
	"replication": true, "healthz": true, "readyz": true, "varz": true,
	"admin": true, "v1": true, "default": true,
}

const specDateFormat = "2006-01-02"

// ImplicitName names the one world a server runs without a scenario
// directory. It is reserved, so no spec file can claim it.
const ImplicitName = "default"

// Implicit is the spec of the one world a server runs without a
// scenario directory: base's seed and scale, no knobs, so
// Implicit(base).Config(base) is base for any knob-free base. It is
// validated like a spec file, apart from its reserved name, so a seed
// or scale outside a spec's bounds fails here rather than at boot.
func Implicit(base simulation.Config) (Spec, error) {
	s := Spec{Name: ImplicitName, Default: true, Seed: base.Seed,
		LIRs: base.NumLIRs, RoutingDays: base.RoutingDays}
	return s, s.validate("", false)
}

// Parse decodes one spec from JSON, rejecting unknown keys, and
// validates it. file labels errors; pass "" for in-memory specs.
func Parse(data []byte, file string) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, &FieldError{File: file, Field: unknownFieldOf(err), Msg: decodeMsg(err)}
	}
	// Trailing garbage after the document is a config error too.
	if dec.More() {
		return Spec{}, &FieldError{File: file, Msg: "trailing data after the JSON document"}
	}
	if err := s.Validate(file); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// unknownFieldOf extracts the field name from encoding/json's unknown-
// field error, so the structured error names the typo.
func unknownFieldOf(err error) string {
	msg := err.Error()
	const marker = `unknown field "`
	i := strings.Index(msg, marker)
	if i < 0 {
		return ""
	}
	rest := msg[i+len(marker):]
	if j := strings.IndexByte(rest, '"'); j >= 0 {
		return rest[:j]
	}
	return ""
}

func decodeMsg(err error) string {
	if strings.Contains(err.Error(), "unknown field") {
		return "unknown key (check the spelling against docs/API.md's scenario schema)"
	}
	return "invalid JSON: " + err.Error()
}

// maxLIRs is the largest world a spec may ask for: the generator's
// fixed IANA pool (simulation's poolSeeds, eleven /8s) runs dry above it.
// Over seeds 1-1000 on DefaultConfig every world builds at 210 LIRs,
// while 220 fails for 2 seeds in 300. TestSpecAtLIRsCapBuilds runs a
// full snapshot build at the cap.
const maxLIRs = 200

// Validate checks every field and returns all failures joined, each a
// *FieldError naming its field.
func (s *Spec) Validate(file string) error { return s.validate(file, true) }

// validate is Validate with the name check optional: the implicit spec
// carries the reserved ImplicitName by design.
func (s *Spec) validate(file string, checkName bool) error {
	var errs []error
	bad := func(field, msg string) {
		errs = append(errs, &FieldError{File: file, Field: field, Msg: msg})
	}

	switch {
	case !checkName:
	case s.Name == "":
		bad("name", "required")
	case !nameRE.MatchString(s.Name):
		bad("name", fmt.Sprintf("%q: want lowercase [a-z0-9_-], starting alphanumeric, at most 32 chars", s.Name))
	case reservedNames[s.Name]:
		bad("name", fmt.Sprintf("%q is reserved (it is already a route segment)", s.Name))
	}
	if s.Seed < 1 {
		bad("seed", fmt.Sprintf("%d: want >= 1 (each scenario needs an explicit seed)", s.Seed))
	}
	if s.LIRs < 0 || s.LIRs > maxLIRs {
		bad("lirs", fmt.Sprintf("%d: want 0 (base default) or 1..%d", s.LIRs, maxLIRs))
	}
	if s.RoutingDays < 0 || s.RoutingDays > 20000 {
		bad("routing_days", fmt.Sprintf("%d: want 0 (base default) or 1..20000", s.RoutingDays))
	}

	for i, ps := range s.PriceShocks {
		field := fmt.Sprintf("price_shocks[%d]", i)
		start, errStart := time.Parse(specDateFormat, ps.Start)
		if errStart != nil {
			bad(field+".start", fmt.Sprintf("%q: want YYYY-MM-DD", ps.Start))
		}
		end, errEnd := time.Parse(specDateFormat, ps.End)
		if errEnd != nil {
			bad(field+".end", fmt.Sprintf("%q: want YYYY-MM-DD", ps.End))
		}
		if errStart == nil && errEnd == nil && !start.Before(end) {
			bad(field, fmt.Sprintf("start %s must precede end %s", ps.Start, ps.End))
		}
		if ps.Factor <= 0 || ps.Factor > 100 {
			bad(field+".factor", fmt.Sprintf("%g: want a multiplier in (0, 100]", ps.Factor))
		}
	}
	for i, st := range s.RPKIChurnStorms {
		field := fmt.Sprintf("rpki_churn_storms[%d]", i)
		if st.StartDay < 0 || st.EndDay <= st.StartDay {
			bad(field, fmt.Sprintf("day window [%d, %d): want 0 <= start_day < end_day", st.StartDay, st.EndDay))
		}
		if st.DropProb < 0 || st.DropProb > 1 {
			bad(field+".drop_prob", fmt.Sprintf("%g: want a probability in [0, 1]", st.DropProb))
		}
		if st.StaleROAFraction < 0 || st.StaleROAFraction > 1 {
			bad(field+".stale_roa_fraction", fmt.Sprintf("%g: want a fraction in [0, 1]", st.StaleROAFraction))
		}
	}
	for i, hw := range s.HijackWaves {
		field := fmt.Sprintf("hijack_waves[%d]", i)
		if hw.StartDay < 0 || hw.EndDay <= hw.StartDay {
			bad(field, fmt.Sprintf("day window [%d, %d): want 0 <= start_day < end_day", hw.StartDay, hw.EndDay))
		}
		if hw.Rate < 0 || hw.Rate > 1000 {
			bad(field+".rate", fmt.Sprintf("%g: want an expected daily hijack count in [0, 1000]", hw.Rate))
		}
	}
	if u := s.Utilization; u != nil {
		if u.ActivityMean < 0 || u.ActivityMean > 1 {
			bad("utilization.activity_mean", fmt.Sprintf("%g: want a fraction in [0, 1]", u.ActivityMean))
		}
		if u.ActivityJitter < 0 || u.ActivityJitter > 1 {
			bad("utilization.activity_jitter", fmt.Sprintf("%g: want a fraction in [0, 1]", u.ActivityJitter))
		}
	}
	return errors.Join(errs...)
}

// Config derives the scenario's simulation config from a base config:
// the seed and any scale overrides replace the base values, and the
// knobs map onto the simulation's scenario fields.
func (s *Spec) Config(base simulation.Config) simulation.Config {
	cfg := base
	cfg.Seed = s.Seed
	if s.LIRs > 0 {
		cfg.NumLIRs = s.LIRs
	}
	if s.RoutingDays > 0 {
		cfg.RoutingDays = s.RoutingDays
	}
	cfg.PriceShocks = nil
	for _, ps := range s.PriceShocks {
		start, _ := time.Parse(specDateFormat, ps.Start)
		end, _ := time.Parse(specDateFormat, ps.End)
		cfg.PriceShocks = append(cfg.PriceShocks, simulation.PriceShock{
			Start: start.UTC(), End: end.UTC(), Factor: ps.Factor,
		})
	}
	cfg.RPKIChurnStorms = nil
	for _, st := range s.RPKIChurnStorms {
		cfg.RPKIChurnStorms = append(cfg.RPKIChurnStorms, simulation.RPKIChurnStorm{
			Window:           simulation.DayWindow{StartDay: st.StartDay, EndDay: st.EndDay},
			DropProb:         st.DropProb,
			StaleROAFraction: st.StaleROAFraction,
		})
	}
	cfg.HijackWaves = nil
	for _, hw := range s.HijackWaves {
		cfg.HijackWaves = append(cfg.HijackWaves, simulation.HijackWave{
			Window: simulation.DayWindow{StartDay: hw.StartDay, EndDay: hw.EndDay},
			Rate:   hw.Rate,
		})
	}
	cfg.ActivityMean, cfg.ActivityJitter = 0, 0
	if s.Utilization != nil {
		cfg.ActivityMean = s.Utilization.ActivityMean
		cfg.ActivityJitter = s.Utilization.ActivityJitter
	}
	return cfg
}

// LoadDir parses and validates every *.json file in dir (sorted by
// filename), checks cross-spec invariants (unique names, at most one
// default), and returns the specs sorted by name with exactly one
// marked Default.
func LoadDir(dir string) ([]Spec, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("scenario: read config dir: %w", err)
	}
	var files []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		files = append(files, e.Name())
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("scenario: %s holds no *.json scenario configs", dir)
	}

	var specs []Spec
	var errs []error
	seen := make(map[string]string, len(files)) // name -> file
	defaults := 0
	for _, name := range files {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			errs = append(errs, fmt.Errorf("scenario: %w", err))
			continue
		}
		spec, err := Parse(data, name)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if prev, dup := seen[spec.Name]; dup {
			errs = append(errs, &FieldError{File: name, Field: "name",
				Msg: fmt.Sprintf("%q already defined in %s", spec.Name, prev)})
			continue
		}
		seen[spec.Name] = name
		if spec.Default {
			defaults++
		}
		specs = append(specs, spec)
	}
	if defaults > 1 {
		errs = append(errs, &FieldError{Field: "default",
			Msg: fmt.Sprintf("%d scenarios claim default; at most one may", defaults)})
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	if defaults == 0 {
		// Deterministic fallback: the lexicographically first scenario.
		specs[0].Default = true
	}
	return specs, nil
}

// DefaultName returns the name of the default scenario in specs.
func DefaultName(specs []Spec) string {
	for _, s := range specs {
		if s.Default {
			return s.Name
		}
	}
	if len(specs) > 0 {
		return specs[0].Name
	}
	return ""
}
