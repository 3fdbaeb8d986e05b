// Package lint implements a small static-analysis framework over the
// standard library's go/ast, go/parser, go/token and go/types packages,
// together with the repo-specific analyzers that guard the measurement
// pipeline's invariants: deterministic randomness in the synthetic-data
// generators, safe floating-point comparison in the price code,
// error-chain preservation, and panic/os.Exit hygiene in library packages.
//
// The framework deliberately has no dependencies outside the standard
// library (the module has none and must stay buildable offline). It is a
// miniature of golang.org/x/tools/go/analysis: an Analyzer holds a Run
// function that walks one type-checked package (a Pass) and reports
// Diagnostics with exact file:line:col positions.
//
// A finding can be suppressed with a comment on the offending line or the
// line directly above it:
//
//	//lint:ignore <rule> <reason>
//
// The reason is mandatory; a directive without one is inert. Suppressions
// are deliberately narrow (one rule, one line) so they document each
// exception rather than disabling a rule wholesale.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Diagnostic is one finding: a resolved source position, the rule that
// fired, and a human-readable message.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the diagnostic in the conventional
// "file:line:col: message [rule]" form used by the CLI.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Rule)
}

// Analyzer is one named rule. Run inspects the package held by the Pass
// and reports findings through it.
type Analyzer struct {
	Name string // rule ID, e.g. "floatcmp"; used in output and suppression
	Doc  string // one-line description shown by ipv4lint -list
	Run  func(*Pass)
}

// Pass is the per-(package, analyzer) context handed to Analyzer.Run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package

	report func(Diagnostic)
}

// Reportf records a finding at pos. The position is resolved immediately
// so diagnostics stay meaningful after the Pass is gone.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Result is the outcome of applying a set of analyzers: the surviving
// diagnostics plus every //lint:ignore directive seen, each marked with
// whether it actually silenced a finding. Both slices are sorted by
// file, line, column.
type Result struct {
	Diagnostics  []Diagnostic
	Suppressions []Suppression
}

// Stale returns the suppressions that silenced nothing. Only meaningful
// when the full analyzer suite ran: under a subset, directives for the
// unselected rules are trivially unused.
func (r Result) Stale() []Suppression {
	var out []Suppression
	for _, s := range r.Suppressions {
		if !s.Used {
			out = append(out, s)
		}
	}
	return out
}

// Run applies every analyzer to every package, filters findings through
// the //lint:ignore suppression index, and returns the survivors sorted
// by file, line, column and rule.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return RunAll(pkgs, analyzers).Diagnostics
}

// RunAll is Run plus the suppression audit trail.
func RunAll(pkgs []*Package, analyzers []*Analyzer) Result {
	var res Result
	for _, pkg := range pkgs {
		idx := newIgnoreIndex(pkg)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Pkg:      pkg,
				report: func(d Diagnostic) {
					if !idx.suppressed(d) {
						res.Diagnostics = append(res.Diagnostics, d)
					}
				},
			}
			a.Run(pass)
		}
		for _, sup := range idx.all {
			res.Suppressions = append(res.Suppressions, *sup)
		}
	}
	sort.Slice(res.Diagnostics, func(i, j int) bool {
		a, b := res.Diagnostics[i], res.Diagnostics[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	sort.Slice(res.Suppressions, func(i, j int) bool {
		a, b := res.Suppressions[i], res.Suppressions[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Pos.Column < b.Pos.Column
	})
	return res
}
