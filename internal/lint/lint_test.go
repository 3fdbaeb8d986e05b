package lint

import (
	"cmp"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// newTestLoader builds the one loader every test in this package shares:
// the standard library is type-checked from source once per test binary
// instead of once per test. The tests do not run in parallel, so the
// loader's memo maps need no lock.
var newTestLoader = sync.OnceValues(func() (*Loader, error) { return NewLoader(".") })

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loader, err := newTestLoader()
	if err != nil {
		t.Fatal(err)
	}
	return loader
}

// The golden-fixture protocol: a fixture line carries one or more
// expectations as `// want "regexp" "regexp"`. Every expectation must be
// matched by a diagnostic of the analyzer under test at exactly that
// file and line, and every diagnostic must match some expectation.
var (
	wantRe   = regexp.MustCompile(`// want (.+)$`)
	quotedRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)
)

type expectation struct {
	file string // base name
	line int
	re   *regexp.Regexp
	hit  bool
}

func loadExpectations(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			quotes := quotedRe.FindAllString(m[1], -1)
			if len(quotes) == 0 {
				t.Fatalf("%s:%d: malformed want comment %q", e.Name(), i+1, line)
			}
			for _, q := range quotes {
				pat, err := strconv.Unquote(q)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %s: %v", e.Name(), i+1, q, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", e.Name(), i+1, pat, err)
				}
				wants = append(wants, &expectation{file: e.Name(), line: i + 1, re: re})
			}
		}
	}
	return wants
}

func TestAnalyzersGolden(t *testing.T) {
	loader := testLoader(t)
	cases := []struct {
		rule     string
		analyzer *Analyzer
	}{
		{"floatcmp", FloatCmp},
		{"seededrand", SeededRand},
		{"wraperr", WrapErr},
		{"bannedcall", BannedCall(DefaultBans())},
		{"ctxflow", CtxFlow},
	}
	for _, c := range cases {
		t.Run(c.rule, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", c.rule)
			pkg, err := loader.LoadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			diags := Run([]*Package{pkg}, []*Analyzer{c.analyzer})
			wants := loadExpectations(t, dir)
			for _, d := range diags {
				if d.Rule != c.rule {
					t.Errorf("diagnostic from wrong rule: %s", d)
				}
				if d.Pos.Column <= 0 || d.Pos.Line <= 0 || d.Pos.Filename == "" {
					t.Errorf("diagnostic without full position: %s", d)
				}
				matched := false
				for _, w := range wants {
					if w.file == filepath.Base(d.Pos.Filename) && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
						w.hit = true
						matched = true
					}
				}
				if !matched {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if !w.hit {
					t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
				}
			}
		})
	}
}

// TestDiagnosticsDeterministic: repeated runs of the full suite over
// every fixture produce identical diagnostics, sorted by file, line,
// column and rule — the order Run promises and the CLI prints.
func TestDiagnosticsDeterministic(t *testing.T) {
	loader := testLoader(t)
	dirs, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, d := range dirs {
		pkg, err := loader.LoadDir(filepath.Join("testdata", "src", d.Name()))
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	base := Run(pkgs, All())
	if len(base) == 0 {
		t.Fatal("expected findings from the fixtures")
	}
	for i := 0; i < 5; i++ {
		if got := Run(pkgs, All()); !reflect.DeepEqual(got, base) {
			t.Fatalf("run %d differs:\n%v\nvs\n%v", i, got, base)
		}
	}
	for i := 1; i < len(base); i++ {
		a, b := base[i-1], base[i]
		if cmp.Or(
			strings.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column),
			strings.Compare(a.Rule, b.Rule),
		) > 0 {
			t.Errorf("diagnostics out of order: %s before %s", a, b)
		}
	}
}

func TestSuppressionAudit(t *testing.T) {
	loader := testLoader(t)
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "suppress"))
	if err != nil {
		t.Fatal(err)
	}
	res := RunAll([]*Package{pkg}, []*Analyzer{FloatCmp})
	if len(res.Diagnostics) != 0 {
		t.Errorf("expected all findings suppressed, got %v", res.Diagnostics)
	}
	if len(res.Suppressions) != 2 {
		t.Fatalf("expected 2 suppressions, got %v", res.Suppressions)
	}
	if s := res.Suppressions[0]; !s.Used || s.Rule != "floatcmp" || s.Reason != "fixture exercises a used suppression" {
		t.Errorf("first suppression should be used with its reason, got %+v", s)
	}
	stale := res.Stale()
	if len(stale) != 1 || stale[0].Pos.Line != res.Suppressions[1].Pos.Line {
		t.Errorf("expected exactly the second suppression stale, got %+v", stale)
	}
}

func TestParseVerbs(t *testing.T) {
	cases := []struct {
		format  string
		verbs   string // verb runes in order
		stars   []int
		indexed bool
	}{
		{"plain", "", nil, false},
		{"%d and %s", "ds", []int{0, 0}, false},
		{"100%% done: %v", "v", []int{0}, false},
		{"%*.*f", "f", []int{2}, false},
		{"%+08.3f|%q", "fq", []int{0, 0}, false},
		{"%[1]d", "", nil, true},
	}
	for _, c := range cases {
		verbs, indexed := parseVerbs(c.format)
		if indexed != c.indexed {
			t.Errorf("parseVerbs(%q) indexed = %v, want %v", c.format, indexed, c.indexed)
			continue
		}
		var got strings.Builder
		for i, v := range verbs {
			got.WriteRune(v.verb)
			if v.stars != c.stars[i] {
				t.Errorf("parseVerbs(%q) verb %d stars = %d, want %d", c.format, i, v.stars, c.stars[i])
			}
		}
		if got.String() != c.verbs {
			t.Errorf("parseVerbs(%q) = %q, want %q", c.format, got.String(), c.verbs)
		}
	}
}

func TestParseIgnoreDirective(t *testing.T) {
	cases := []struct {
		text   string
		rule   string
		reason string
		ok     bool
	}{
		{"//lint:ignore floatcmp exact sentinel", "floatcmp", "exact sentinel", true},
		{"//lint:ignore floatcmp", "", "", false}, // reason is mandatory
		{"// lint:ignore floatcmp reason", "", "", false},
		{"// ordinary comment", "", "", false},
	}
	for _, c := range cases {
		rule, reason, ok := parseIgnoreDirective(c.text)
		if ok != c.ok || rule != c.rule || reason != c.reason {
			t.Errorf("parseIgnoreDirective(%q) = %q, %q, %v; want %q, %q, %v", c.text, rule, reason, ok, c.rule, c.reason, c.ok)
		}
	}
}
