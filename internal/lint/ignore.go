package lint

import (
	"go/token"
	"strings"
)

// Suppression is one //lint:ignore directive, resolved to a position.
// Used records whether any diagnostic was actually silenced by it during
// a Run — a suppression that silences nothing is stale: the finding it
// excused has been fixed (or the rule changed), and the directive now
// only misleads readers. TestSelfCheck fails on stale entries.
type Suppression struct {
	Pos    token.Position
	Rule   string
	Reason string
	Used   bool
}

// ignoreIndex maps (file, line) to the suppressions declared there by
// //lint:ignore directives. A directive suppresses findings of the named
// rule on its own line and on the line directly below it, so it can sit
// either at the end of the offending line or on its own line above.
type ignoreIndex struct {
	byLine map[string]map[int][]*Suppression // filename -> line -> directives
	all    []*Suppression                    // in file order
}

func newIgnoreIndex(pkg *Package) *ignoreIndex {
	idx := &ignoreIndex{byLine: make(map[string]map[int][]*Suppression)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rule, reason, ok := parseIgnoreDirective(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				sup := &Suppression{Pos: pos, Rule: rule, Reason: reason}
				lines := idx.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]*Suppression)
					idx.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], sup)
				idx.all = append(idx.all, sup)
			}
		}
	}
	return idx
}

// parseIgnoreDirective extracts the rule name and reason from a
// "//lint:ignore <rule> <reason>" comment. The reason is mandatory:
// a directive without one is inert, which keeps every suppression
// self-documenting.
func parseIgnoreDirective(text string) (rule, reason string, ok bool) {
	body, found := strings.CutPrefix(text, "//lint:ignore ")
	if !found {
		return "", "", false
	}
	fields := strings.Fields(body)
	if len(fields) < 2 { // rule + at least one word of reason
		return "", "", false
	}
	return fields[0], strings.Join(fields[1:], " "), true
}

// suppressed reports whether d is silenced by a directive, marking the
// directive used.
func (idx *ignoreIndex) suppressed(d Diagnostic) bool {
	lines := idx.byLine[d.Pos.Filename]
	if lines == nil {
		return false
	}
	hit := false
	for _, line := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
		for _, sup := range lines[line] {
			if sup.Rule == d.Rule {
				sup.Used = true
				hit = true
			}
		}
	}
	return hit
}
