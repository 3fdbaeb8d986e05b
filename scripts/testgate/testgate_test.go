package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// stream renders events as a test2json stream, one JSON object a line.
func stream(t *testing.T, events ...event) string {
	t.Helper()
	var sb strings.Builder
	for _, e := range events {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(b)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// passing is a clean run of package p: TestContract passes, a helper
// test passes, and the package passes.
func passing(p string, tail ...string) []event {
	return []event{
		{Action: "start", Package: p},
		{Action: "run", Package: p, Test: "TestContract"},
		{Action: "output", Package: p, Test: "TestContract", Output: "=== RUN   TestContract\n"},
		{Action: "pass", Package: p, Test: "TestContract"},
		{Action: "run", Package: p, Test: "TestHelper"},
		{Action: "pass", Package: p, Test: "TestHelper"},
		{Action: "output", Package: p, Output: strings.Join(append([]string{"PASS\n"}, tail...), "")},
		{Action: "pass", Package: p},
	}
}

func TestCheck(t *testing.T) {
	const p = "example/pkg"
	contracts := []contract{{p, []string{"TestContract"}}}
	cases := []struct {
		name   string
		events []event
		// want lists substrings the problems must contain, in order; none
		// means the stream must pass.
		want []string
		// printed must appear in the failure output written to w.
		printed string
	}{
		{
			name:   "all contracts pass",
			events: passing(p),
		},
		{
			name:   "cached package",
			events: passing(p, "ok  \texample/pkg\t(cached)\n"),
		},
		{
			name: "contract absent",
			events: []event{
				{Action: "run", Package: p, Test: "TestContract2"},
				{Action: "pass", Package: p, Test: "TestContract2"},
				{Action: "pass", Package: p},
			},
			want: []string{"contract example/pkg.TestContract did not run"},
		},
		{
			name: "contract skipped",
			events: []event{
				{Action: "run", Package: p, Test: "TestContract"},
				{Action: "output", Package: p, Test: "TestContract", Output: "--- SKIP: TestContract (0.00s)\n"},
				{Action: "skip", Package: p, Test: "TestContract"},
				{Action: "pass", Package: p},
			},
			want: []string{"contract example/pkg.TestContract reported skip"},
		},
		{
			name: "non-contract test fails",
			events: append(passing(p)[:4],
				event{Action: "run", Package: p, Test: "TestHelper"},
				event{Action: "output", Package: p, Test: "TestHelper", Output: "    x_test.go:9: boom\n"},
				event{Action: "fail", Package: p, Test: "TestHelper"},
				event{Action: "output", Package: p, Output: "FAIL\texample/pkg\t0.01s\n"},
				event{Action: "fail", Package: p},
			),
			want:    []string{"test failed: example/pkg.TestHelper", "package failed: example/pkg"},
			printed: "x_test.go:9: boom",
		},
		{
			name: "only a subtest fails",
			// The parent and the package report pass; only the
			// subtest's own event carries the failure.
			events: append(passing(p)[:5],
				event{Action: "run", Package: p, Test: "TestHelper/case"},
				event{Action: "output", Package: p, Test: "TestHelper/case", Output: "    x_test.go:12: bad case\n"},
				event{Action: "fail", Package: p, Test: "TestHelper/case"},
				event{Action: "pass", Package: p, Test: "TestHelper"},
				event{Action: "pass", Package: p},
			),
			want:    []string{"test failed: example/pkg.TestHelper/case"},
			printed: "bad case",
		},
		{
			name: "package build fails",
			events: append(passing(p),
				event{Action: "build-output", ImportPath: "example/broken [example/broken.test]", Output: "broken_test.go:5:2: undefined: nope\n"},
				event{Action: "build-fail", ImportPath: "example/broken [example/broken.test]"},
				event{Action: "output", Package: "example/broken", Output: "FAIL\texample/broken [build failed]\n"},
				event{Action: "fail", Package: "example/broken"},
			),
			want:    []string{"build failed: example/broken", "package failed: example/broken"},
			printed: "undefined: nope",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			problems, _, err := check(strings.NewReader(stream(t, c.events...)), contracts, &out)
			if err != nil {
				t.Fatal(err)
			}
			if len(problems) != len(c.want) {
				t.Fatalf("problems = %q, want %d matching %q", problems, len(c.want), c.want)
			}
			for i, w := range c.want {
				if !strings.Contains(problems[i], w) {
					t.Errorf("problem %d = %q, want it to contain %q", i, problems[i], w)
				}
			}
			if !strings.Contains(out.String(), c.printed) {
				t.Errorf("failure output %q does not contain %q", out.String(), c.printed)
			}
		})
	}
}

func TestCheckRejectsNonJSON(t *testing.T) {
	_, _, err := check(strings.NewReader("FAIL\texample/pkg [setup failed]\n"), nil, &strings.Builder{})
	if err == nil {
		t.Fatal("a line that is not a test2json event was accepted")
	}
}
