// Command flashvet runs the repository's project-specific static
// analyzers (internal/analysis) over the module: the determinism,
// lock-order, observer-only and doc-comment contracts that ordinary
// vet/staticcheck cannot see, and the whole-program testonly rule. It
// is the CI lint gate.
//
// Usage:
//
//	flashvet ./...               # audit every package in the module
//	flashvet ./internal/pcn      # audit specific package directories, without testonly
//	flashvet -v ./...            # also list directive-suppressed findings
//	flashvet -catalogue          # print the analyzer/rule catalogue
//
// Exit status is 1 when any unsuppressed diagnostic remains. Audited
// exceptions are written in the source as
//
//	//flashvet:allow <analyzer>/<rule> <reason>
//
// on the flagged line or the line above; a directive that suppresses
// nothing is itself a diagnostic, so stale annotations fail the gate
// too.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/analysis"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is flashvet over the given arguments and output streams; it
// returns the exit status: 0 clean, 1 diagnostics found, 2 analysis
// could not run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flashvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	verbose := fs.Bool("v", false, "also print directive-suppressed findings")
	catalogue := fs.Bool("catalogue", false, "print the analyzer and rule catalogue and exit")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	analyzers := analysis.All()
	if *catalogue {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%s: %s\n", a.Name, a.Doc)
			for _, r := range a.Rules {
				fmt.Fprintf(stdout, "  %s\n", r)
			}
		}
		return 0
	}

	if args = fs.Args(); len(args) == 0 {
		args = []string{"./..."}
	}
	if !slices.Contains(args, "./...") && !slices.Contains(args, "...") {
		// Over a few packages a whole-program rule would miss the
		// references the rest of the program makes.
		analyzers = slices.DeleteFunc(analyzers, func(a *analysis.Analyzer) bool { return a.WholeProgram })
	}
	pkgs, err := load(args)
	if err == nil {
		var res *analysis.Result
		if res, err = analysis.Run(pkgs, analyzers); err == nil {
			return report(res, len(pkgs), len(analyzers), *verbose, stdout, stderr)
		}
	}
	fmt.Fprintln(stderr, "flashvet:", err)
	return 2
}

// load type-checks the packages args name, relative to the module root
// above the working directory.
func load(args []string) ([]*analysis.Package, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	loader, err := analysis.NewLoader(wd)
	if err != nil {
		return nil, err
	}
	var pkgs []*analysis.Package
	for _, arg := range args {
		if arg == "./..." || arg == "..." {
			all, err := loader.LoadAll()
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, all...)
			continue
		}
		pkg, err := loader.Load(arg)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// report prints the findings and returns 1 when any is unsuppressed.
func report(res *analysis.Result, pkgs, analyzers int, verbose bool, stdout, stderr io.Writer) int {
	if verbose {
		for _, d := range res.Suppressed {
			fmt.Fprintf(stderr, "allowed: %s\n", res.Format(d))
		}
	}
	for _, d := range res.Diagnostics {
		fmt.Fprintln(stdout, res.Format(d))
	}
	if len(res.Diagnostics) > 0 {
		fmt.Fprintf(stderr, "flashvet: %d diagnostic(s) in %d package(s)\n", len(res.Diagnostics), pkgs)
		return 1
	}
	fmt.Fprintf(stderr, "flashvet: ok — %d package(s), %d analyzer(s), %d audited exception(s)\n",
		pkgs, analyzers, len(res.Suppressed))
	return 0
}
