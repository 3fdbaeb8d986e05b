package lint

import (
	"testing"
)

// TestSelfCheck runs the full analyzer suite over the repository's own
// source tree, the package set `ipv4lint ./...` covers, making plain
// `go test ./...` (the tier-1 gate) fail on any new violation. Fix the
// finding, or — for an intentional exception — add
// `//lint:ignore <rule> <reason>` on or above the offending line. It
// also fails on a stale directive, one that silenced nothing: the
// exception it documents is gone, and the directive only misleads.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	pkgs, err := testLoader(t).LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages from the module")
	}
	res := RunAll(pkgs, All())
	for _, d := range res.Diagnostics {
		t.Errorf("%s", d)
	}
	if len(res.Diagnostics) > 0 {
		t.Logf("self-check failed with %d finding(s); fix them or suppress with //lint:ignore <rule> <reason>", len(res.Diagnostics))
	}
	for _, s := range res.Stale() {
		t.Errorf("%s:%d: stale //lint:ignore %s directive silences nothing; remove it (reason was: %s)", s.Pos.Filename, s.Pos.Line, s.Rule, s.Reason)
	}
}
