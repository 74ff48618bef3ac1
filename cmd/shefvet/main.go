// Command shefvet runs the repo's invariant suite (internal/analysis):
// the custom analyzers that mechanically enforce DESIGN.md's lock
// ordering, guarded instrumentation sites and typed-error boundaries.
//
//	shefvet [./...]
//
// loads the packages via the go command, runs every analyzer, prints the
// findings and exits 2 if there are any.
//
// Flags: -list prints the suite, -json emits machine-readable findings
// (the same shape benchtab embeds in its run header).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"shef/internal/analysis"
)

func main() {
	listFlag := flag.Bool("list", false, "print the analyzer suite and exit")
	jsonFlag := flag.Bool("json", false, "emit machine-readable findings on stdout")
	flag.Parse()

	if *listFlag {
		fmt.Printf("shefvet %s\n", analysis.Version)
		for _, a := range analysis.All() {
			fmt.Printf("  %-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	os.Exit(standalone(flag.Args(), *jsonFlag))
}

func standalone(patterns []string, asJSON bool) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "shefvet:", err)
		return 1
	}
	pkgs, err := analysis.LoadPackages(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shefvet:", err)
		return 1
	}
	var diags []analysis.Diagnostic
	for _, p := range pkgs {
		diags = append(diags,
			analysis.RunAnalyzers(p.Fset, p.Files, p.Types, p.Info, analysis.All())...)
	}
	if asJSON {
		out := struct {
			Shefvet     string                `json:"shefvet"`
			Analyzers   []string              `json:"analyzers"`
			Packages    int                   `json:"packages"`
			Diagnostics []analysis.Diagnostic `json:"diagnostics"`
		}{analysis.Version, analysis.Names(), len(pkgs), diags}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "shefvet:", err)
			return 1
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s: [%s] %s\n", d.Pos, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
