// Command ipv4lint runs the repo's static-analysis suite (internal/lint)
// over Go packages and reports diagnostics with file:line:col positions
// and rule IDs. It exits 0 when clean, 1 when there are findings, and 2
// on usage or load errors.
//
// Usage:
//
//	ipv4lint [-rules floatcmp,wraperr,...] [-list] [patterns...]
//
// A pattern is a directory, or a directory followed by /... to include
// its subtree (testdata, hidden, and _-prefixed directories are skipped,
// as with the go tool). The default pattern is ./... rooted at the
// enclosing module.
//
// Stale //lint:ignore directives, ones that silence nothing, are
// reported by internal/lint's TestSelfCheck, which runs the full suite
// over the same packages as "ipv4lint ./...".
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ipv4market/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	rules := flag.String("rules", "", "comma-separated rule IDs to run (default: all)")
	list := flag.Bool("list", false, "list available rules and exit")
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *rules != "" {
		selected, unknown := lint.ByName(strings.Split(*rules, ","))
		if selected == nil {
			fmt.Fprintf(os.Stderr, "ipv4lint: unknown rule %q (use -list)\n", unknown)
			return 2
		}
		analyzers = selected
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	var pkgs []*lint.Package
	loaders := make(map[string]*lint.Loader) // one per module root
	for _, pat := range patterns {
		dir, recursive := pat, false
		if d, ok := strings.CutSuffix(pat, "/..."); ok {
			dir, recursive = d, true
		} else if pat == "..." {
			dir, recursive = ".", true
		}
		loader, err := loaderFor(loaders, dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ipv4lint: %v\n", err)
			return 2
		}
		if recursive {
			sub, err := loader.LoadSubtree(dir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ipv4lint: %v\n", err)
				return 2
			}
			pkgs = append(pkgs, sub...)
		} else {
			pkg, err := loader.LoadDir(dir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ipv4lint: %v\n", err)
				return 2
			}
			pkgs = append(pkgs, pkg)
		}
	}

	diags := lint.Run(pkgs, analyzers)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "ipv4lint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}

// loaderFor returns a Loader rooted at dir's module, sharing one loader
// (and so one type-checked package graph) per module root.
func loaderFor(loaders map[string]*lint.Loader, dir string) (*lint.Loader, error) {
	probe, err := lint.NewLoader(dir)
	if err != nil {
		return nil, err
	}
	if existing, ok := loaders[probe.ModuleDir()]; ok {
		return existing, nil
	}
	loaders[probe.ModuleDir()] = probe
	return probe, nil
}
