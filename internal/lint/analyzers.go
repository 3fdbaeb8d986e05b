package lint

// All returns the full analyzer suite in its default configuration —
// the set the ipv4lint CLI and the self-check test both run.
func All() []*Analyzer {
	return []*Analyzer{
		BannedCall(DefaultBans()),
		CtxFlow,
		FloatCmp,
		SeededRand,
		WrapErr,
	}
}

// ByName returns the analyzers whose names appear in names, in the order
// given, or nil if any name is unknown (the second result names it).
func ByName(names []string) ([]*Analyzer, string) {
	index := make(map[string]*Analyzer)
	for _, a := range All() {
		index[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range names {
		a, ok := index[name]
		if !ok {
			return nil, name
		}
		out = append(out, a)
	}
	return out, ""
}
