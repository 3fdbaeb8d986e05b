package main

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, tc := range []struct {
		q, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {0.99, 4.96}, {1, 5},
	} {
		if got := percentile(xs, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(100)},
		// Two overlapping children cover 10..40 once, not 45ms.
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(15), End: ms(40)},
		// A disjoint child, with its own child.
		{ID: 4, Parent: 1, Name: "c", Start: ms(50), End: ms(70)},
		{ID: 5, Parent: 4, Name: "d", Start: ms(55), End: ms(60)},
		// A child that outlives its parent is clipped to the parent.
		{ID: 6, Parent: 5, Name: "e", Start: ms(58), End: ms(90)},
	}
	got := selfTimes(spans)
	want := []time.Duration{ms(100 - 30 - 20), ms(20), ms(25), ms(15), ms(3), ms(32)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerNilIsOff(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0)
	tr.end(id)
	tr.record("y", 0, time.Now(), time.Now())
	if id != 0 {
		t.Errorf("nil tracer begin = %d, want 0", id)
	}
	on := newTracer("run")
	p := on.begin("parent", 0)
	c := on.begin("child", p)
	on.end(c)
	on.end(p)
	by := on.selfByName()
	if len(by["parent"]) != 1 || len(by["child"]) != 1 || on.spans[1].Parent != p {
		t.Errorf("spans not recorded under their parent: %+v", on.spans)
	}
}

func TestParseStatTicks(t *testing.T) {
	// A command name with spaces and parentheses must not shift fields.
	line := "4242 (market d) (x)) S 1 4242 4242 0 -1 4194304 900 0 0 0 368 15 0 0 20 0 9 0 1234 5678 90 18446744073709551615\n"
	u, s, err := parseStatTicks([]byte(line))
	if err != nil || u != 368 || s != 15 {
		t.Errorf("parseStatTicks = %d, %d, %v; want 368, 15, nil", u, s, err)
	}
	for _, bad := range []string{"", "12 (x) S 1 2", "1 (x) S 1 1 1 0 -1 0 0 0 0 0 u s"} {
		if _, _, err := parseStatTicks([]byte(bad)); err == nil {
			t.Errorf("parseStatTicks(%q) accepted a malformed line", bad)
		}
	}
}

func testWorlds() []world {
	keys := []transferKey{
		{"41.16.0.0/24", time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC), "AFRINIC", "41.16.0.0/16"},
		{"77.96.16.0/20", time.Date(2016, 2, 29, 0, 0, 0, 0, time.UTC), "RIPE NCC", "77.96.0.0/16"},
		{"23.0.0.0/16", time.Date(2005, 1, 3, 0, 0, 0, 0, time.UTC), "ARIN", "23.0.0.0/16"},
	}
	return []world{{"/a", keys}, {"/b", keys}}
}

func TestQueryRequestsDeterministic(t *testing.T) {
	a := queryRequests(7, testWorlds(), 500)
	b := queryRequests(7, testWorlds(), 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different request sequences")
	}
	if reflect.DeepEqual(a, queryRequests(8, testWorlds(), 500)) {
		t.Error("different seeds gave the same request sequence")
	}
	perWorld := map[string]int{}
	seen := map[string]bool{}
	for _, r := range a {
		seen[r.endpoint] = true
		perWorld[r.path[:len("/v1/a")]]++
		for _, field := range []string{"date=", "from=", "to="} {
			if i := strings.Index(r.path, field); i >= 0 {
				d := r.path[i+len(field) : i+len(field)+len("2006-01-02")]
				parsed, err := time.Parse("2006-01-02", d)
				if err != nil {
					t.Fatalf("%s: invalid date %q", r.path, d)
				}
				if parsed.Before(epochStart) || !parsed.Before(epochEnd) {
					t.Errorf("%s: date %s outside the as-of epoch", r.path, d)
				}
			}
		}
	}
	if perWorld["/v1/a"] != 250 || perWorld["/v1/b"] != 250 {
		t.Errorf("requests per world = %v, want an even split", perWorld)
	}
	for _, q := range queryWeights {
		if !seen[q.endpoint] {
			t.Errorf("endpoint %s never drawn", q.endpoint)
		}
	}
}

func TestParseTransfers(t *testing.T) {
	body := []byte(`{"total":2,"transfers":[
		{"prefix":"41.16.0.0/24","date":"2019-06-01","to_rir":"AFRINIC"},
		{"prefix":"23.0.0.0/12","date":"2012-02-29","to_rir":"ARIN"}]}`)
	keys, err := parseTransfers(body)
	if err != nil {
		t.Fatal(err)
	}
	if keys[0].within != "41.16.0.0/16" || keys[1].within != "23.0.0.0/12" {
		t.Errorf("lookup prefixes = %q, %q", keys[0].within, keys[1].within)
	}
	if _, err := parseTransfers([]byte(`{"transfers":[{"prefix":"x","date":"2019-02-29"}]}`)); err == nil {
		t.Error("parseTransfers accepted Feb 29 of a common year")
	}
}

func TestMixRequests(t *testing.T) {
	reqs := mixRequests(3, []string{"", "/b"}, 400, staticEndpoints)
	if len(reqs) != 400 {
		t.Fatalf("got %d requests, want 400", len(reqs))
	}
	for i, r := range reqs {
		if !staticEndpoints[r.endpoint] {
			t.Fatalf("non-static endpoint %s in a static mix", r.endpoint)
		}
		want := "/v1/"
		if i%2 == 1 {
			want = "/v1/b/"
		}
		if !strings.HasPrefix(r.path, want) || strings.HasPrefix(r.path, "/v1/v1") {
			t.Fatalf("request %d path %s, want prefix %s", i, r.path, want)
		}
	}
	if !reflect.DeepEqual(reqs, mixRequests(3, []string{"", "/b"}, 400, staticEndpoints)) {
		t.Error("the same seed gave different static sequences")
	}
}

func TestArtifactKey(t *testing.T) {
	for path, want := range map[string][2]string{
		"/table1":            {"table1", "application/json"},
		"/table1?format=csv": {"table1", "text/csv"},
		"/figures/3":         {"fig3", "application/json"},
		"/transfers":         {"transfers", "application/json"},
	} {
		k, c := artifactKey(path)
		if k != want[0] || c != want[1] {
			t.Errorf("artifactKey(%s) = %s, %s; want %v", path, k, c, want)
		}
	}
}
