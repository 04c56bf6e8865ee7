// Package analysis is the repository's static-analysis engine:
// flashvet. It machine-checks the project-specific contracts that
// ordinary vet/staticcheck cannot see — the determinism rules the seed
// goldens and event-log fingerprints rest on, the pcn lock-ordering
// discipline, the telemetry observer-only contract, and the doc-comment
// gate formerly housed in internal/doclint — using only the standard
// library (go/ast, go/parser, go/types, go/importer).
//
// The engine is deliberately small: an Analyzer is a named Run function
// over a type-checked Package, diagnostics carry a stable
// "analyzer/rule" identifier, and audited exceptions are written in the
// source itself as
//
//	//flashvet:allow <analyzer>/<rule> <reason>
//
// on the flagged line or the line directly above it. Every directive
// must suppress at least one diagnostic — a stale directive is itself a
// diagnostic — so deleting or orphaning an annotation fails the gate.
// Analyzers are self-tested against fixture packages under testdata/src
// carrying `// want "regexp"` expected-diagnostic comments, and the
// whole suite runs over the repository both as a test (TestRepoClean)
// and as the cmd/flashvet CI gate.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, a stable "analyzer/rule"
// identifier (what an allow directive must name to suppress it), and a
// human-readable message.
type Diagnostic struct {
	// Pos locates the finding in the package's file set.
	Pos token.Pos
	// Rule is the qualified rule identifier, e.g. "determinism/maprange".
	Rule string
	// Message describes the finding.
	Message string
}

// Pass carries one analyzer's view of one package and collects its
// diagnostics.
type Pass struct {
	// Analyzer is the analyzer being run.
	Analyzer *Analyzer
	// Pkg is the loaded, type-checked package under analysis.
	Pkg *Package
	// Program is every package of the run, Pkg included: what a
	// whole-program rule reads beyond the package it audits.
	Program []*Package

	shared map[*Analyzer]any // per-run facts, one per analyzer (Shared)
	diags  []Diagnostic
}

// Shared returns the analyzer's whole-program fact, calling build on
// the run's first package and reusing its result for every other.
func (p *Pass) Shared(build func() any) any {
	if _, ok := p.shared[p.Analyzer]; !ok {
		p.shared[p.Analyzer] = build()
	}
	return p.shared[p.Analyzer]
}

// Reportf records a diagnostic at pos under the given qualified rule.
// The rule must be one the analyzer declared in Rules; undeclared rules
// panic, because an undeclared rule could never be suppressed or
// documented.
func (p *Pass) Reportf(pos token.Pos, rule, format string, args ...any) {
	if !p.Analyzer.owns(rule) {
		panic(fmt.Sprintf("analysis: analyzer %q reported undeclared rule %q", p.Analyzer.Name, rule))
	}
	p.diags = append(p.diags, Diagnostic{Pos: pos, Rule: rule, Message: fmt.Sprintf(format, args...)})
}

// Analyzer is one named check suite run over a package.
type Analyzer struct {
	// Name is the analyzer's short name, the first component of its
	// qualified rule identifiers.
	Name string
	// Doc is a one-paragraph description of the contract the analyzer
	// enforces.
	Doc string
	// Rules lists the qualified rule identifiers the analyzer may
	// report ("name/rule"). Allow directives are validated against the
	// union of all analyzers' rules.
	Rules []string
	// AppliesTo reports whether the analyzer audits the given package;
	// a nil AppliesTo audits every package. Scoping is by package —
	// e.g. determinism runs only on the deterministic packages.
	AppliesTo func(pkg *Package) bool
	// WholeProgram marks a rule whose verdict depends on every package
	// of the program, so it is sound only when the run loads them all.
	WholeProgram bool
	// Run performs the analysis, reporting findings through the pass.
	Run func(*Pass) error
}

// owns reports whether rule is one of the analyzer's declared rules.
func (a *Analyzer) owns(rule string) bool {
	for _, r := range a.Rules {
		if r == rule {
			return true
		}
	}
	return false
}

// applies reports whether the analyzer audits pkg.
func (a *Analyzer) applies(pkg *Package) bool {
	return a.AppliesTo == nil || a.AppliesTo(pkg)
}

// DirectivePrefix is the comment prefix that marks an audited
// exception: `//flashvet:allow <analyzer>/<rule> <reason>`.
const DirectivePrefix = "//flashvet:allow"

// directive is one parsed //flashvet:allow comment.
type directive struct {
	pos    token.Pos
	line   int    // line the directive suppresses from (its own line)
	rule   string // qualified rule it allows
	reason string // mandatory justification
	used   bool   // did it suppress at least one diagnostic?
}

// directiveRules are the engine's own findings about allow directives.
const (
	// RuleDirectiveMalformed flags a directive missing its rule or
	// reason, or naming a rule no analyzer declares.
	RuleDirectiveMalformed = "directive/malformed"
	// RuleDirectiveUnused flags a directive that suppressed nothing —
	// the exception it documented no longer exists, so the annotation
	// must be deleted (keeping the audit trail honest).
	RuleDirectiveUnused = "directive/unused"
)

// parseDirectives extracts every flashvet directive from the package's
// comments. Malformed directives are returned as diagnostics.
func parseDirectives(pkg *Package, known map[string]bool) ([]*directive, []Diagnostic) {
	var dirs []*directive
	var diags []Diagnostic
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, DirectivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, DirectivePrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //flashvet:allowlist — not ours
				}
				fields := strings.Fields(rest)
				switch {
				case len(fields) == 0:
					diags = append(diags, Diagnostic{Pos: c.Pos(), Rule: RuleDirectiveMalformed,
						Message: "flashvet:allow directive missing rule and reason"})
				case len(fields) == 1:
					diags = append(diags, Diagnostic{Pos: c.Pos(), Rule: RuleDirectiveMalformed,
						Message: fmt.Sprintf("flashvet:allow %s missing reason — audited exceptions must say why", fields[0])})
				case !known[fields[0]]:
					diags = append(diags, Diagnostic{Pos: c.Pos(), Rule: RuleDirectiveMalformed,
						Message: fmt.Sprintf("flashvet:allow names unknown rule %q", fields[0])})
				default:
					dirs = append(dirs, &directive{
						pos:    c.Pos(),
						line:   pkg.Fset.Position(c.Pos()).Line,
						rule:   fields[0],
						reason: strings.Join(fields[1:], " "),
					})
				}
			}
		}
	}
	return dirs, diags
}

// Result is the outcome of running a suite of analyzers over a set of
// packages.
type Result struct {
	// Diagnostics are the unsuppressed findings, in file/line order.
	Diagnostics []Diagnostic
	// Suppressed are findings silenced by an allow directive, kept for
	// auditing (flashvet -v prints them).
	Suppressed []Diagnostic
	// Fset positions every diagnostic.
	Fset *token.FileSet
}

// Run executes every applicable analyzer over every package, applies
// allow directives, and reports stale directives. The packages are the
// whole program a WholeProgram analyzer sees. It is the single
// entry point shared by the flashvet command, the repo-gate test and
// the fixture runner.
func Run(pkgs []*Package, analyzers []*Analyzer) (*Result, error) {
	// A directive must name a catalogued rule; it is stale only if the
	// run checks that rule.
	known, checked := map[string]bool{}, map[string]bool{}
	for _, a := range All() {
		for _, r := range a.Rules {
			known[r] = true
		}
	}
	for _, a := range analyzers {
		for _, r := range a.Rules {
			known[r], checked[r] = true, true
		}
	}
	res := &Result{}
	shared := map[*Analyzer]any{}
	for _, pkg := range pkgs {
		if res.Fset == nil {
			res.Fset = pkg.Fset
		}
		dirs, dirDiags := parseDirectives(pkg, known)
		res.Diagnostics = append(res.Diagnostics, dirDiags...)
		for _, a := range analyzers {
			if !a.applies(pkg) {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, Program: pkgs, shared: shared}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
			for _, d := range pass.diags {
				if dir := matchDirective(dirs, pkg.Fset.Position(d.Pos).Line, d.Rule); dir != nil {
					dir.used = true
					res.Suppressed = append(res.Suppressed, d)
					continue
				}
				res.Diagnostics = append(res.Diagnostics, d)
			}
		}
		for _, dir := range dirs {
			if !dir.used && checked[dir.rule] {
				res.Diagnostics = append(res.Diagnostics, Diagnostic{Pos: dir.pos, Rule: RuleDirectiveUnused,
					Message: fmt.Sprintf("flashvet:allow %s suppresses nothing — delete the stale directive", dir.rule)})
			}
		}
	}
	sortDiagnostics(res.Fset, res.Diagnostics)
	sortDiagnostics(res.Fset, res.Suppressed)
	return res, nil
}

// matchDirective finds an unconsumed-or-not directive allowing rule on
// the diagnostic's line or the line directly above it.
func matchDirective(dirs []*directive, line int, rule string) *directive {
	for _, d := range dirs {
		if d.rule == rule && (d.line == line || d.line == line-1) {
			return d
		}
	}
	return nil
}

// sortDiagnostics orders diagnostics by file name, then line, then
// column, then rule — a stable order for goldens and CI output.
func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	if fset == nil {
		return
	}
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Rule < diags[j].Rule
	})
}

// Format renders one diagnostic as "file:line:col: rule: message".
func (r *Result) Format(d Diagnostic) string {
	pos := r.Fset.Position(d.Pos)
	return fmt.Sprintf("%s:%d:%d: %s: %s", pos.Filename, pos.Line, pos.Column, d.Rule, d.Message)
}

// exprIdent unwraps an expression to its base identifier: selectors,
// index expressions, parens, stars and calls are peeled until a plain
// identifier (or nil) remains. Shared by several analyzers to decide
// whether two sink expressions refer to the same underlying object.
func exprIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		default:
			return nil
		}
	}
}
