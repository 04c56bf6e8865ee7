package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// TestRepoClean is the in-tree form of the flashvet CI gate: it loads
// every package in the module, runs the full analyzer suite, and
// requires zero unannotated diagnostics. Deleting any //flashvet:allow
// directive from the tree makes the underlying finding resurface here
// (and an orphaned directive is itself a directive/unused diagnostic),
// so the audit trail cannot silently rot.
func TestRepoClean(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loader found no packages")
	}
	res, err := Run(pkgs, All())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range res.Diagnostics {
		t.Errorf("unannotated finding: %s", res.Format(d))
	}
	if len(res.Suppressed) == 0 {
		t.Error("expected at least one audited exception in the tree; the directive machinery is not being exercised")
	}
	checkBenchmarkRead(t, pkgs)
}

// checkBenchmarkRead requires the whole program to include benchmark/:
// pcn.Network.Snapshot's one non-test caller is benchmark/harness, so
// testonly must see it referenced with benchmark/ and not without it.
func checkBenchmarkRead(t *testing.T, pkgs []*Package) {
	t.Helper()
	var pcn *types.Package
	var module []*Package
	for _, p := range pkgs {
		if p.Path == "repro/internal/pcn" {
			pcn = p.Types
		}
		if !strings.HasPrefix(p.Path, "repro/benchmark/") {
			module = append(module, p)
		}
	}
	if pcn == nil || len(module) == len(pkgs) {
		t.Fatalf("program lacks internal/pcn or benchmark/ (%d of %d packages outside benchmark/)", len(module), len(pkgs))
	}
	network := pcn.Scope().Lookup("Network").Type()
	obj, _, _ := types.LookupFieldOrMethod(network, true, pcn, "Snapshot")
	snapshot, ok := obj.(*types.Func)
	if !ok {
		t.Fatal("pcn.Network.Snapshot is gone: check another method that only benchmark/ calls")
	}
	if !referenced(pkgs)[snapshot] {
		t.Error("testonly misses benchmark/harness's call to pcn.Network.Snapshot")
	}
	if referenced(module)[snapshot] {
		t.Error("pcn.Network.Snapshot has a caller outside benchmark/, so this check proves nothing")
	}
}

// parseTestPackage wraps a source string into a minimal *Package —
// enough for comment-level machinery that needs no type information.
func parseTestPackage(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "directive.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing test source: %v", err)
	}
	return &Package{Path: "p", Name: "p", Files: []*ast.File{f}, Fset: fset}
}

// TestParseDirectivesMalformed covers the malformed-directive shapes
// that cannot be expressed in a fixture file (a same-line want comment
// would be swallowed into the directive's reason text).
func TestParseDirectivesMalformed(t *testing.T) {
	known := map[string]bool{"determinism/wallclock": true}
	cases := []struct {
		name    string
		src     string
		message string
	}{
		{
			name:    "missing rule and reason",
			src:     "package p\n\n//flashvet:allow\nvar x = 1\n",
			message: "missing rule and reason",
		},
		{
			name:    "missing reason",
			src:     "package p\n\n//flashvet:allow determinism/wallclock\nvar x = 1\n",
			message: "missing reason",
		},
		{
			name:    "unknown rule",
			src:     "package p\n\n//flashvet:allow determinism/bogus because\nvar x = 1\n",
			message: `unknown rule "determinism/bogus"`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkg := parseTestPackage(t, tc.src)
			dirs, diags := parseDirectives(pkg, known)
			if len(dirs) != 0 {
				t.Errorf("want no well-formed directives, got %d", len(dirs))
			}
			if len(diags) != 1 {
				t.Fatalf("want one malformed diagnostic, got %d", len(diags))
			}
			if diags[0].Rule != RuleDirectiveMalformed {
				t.Errorf("want rule %s, got %s", RuleDirectiveMalformed, diags[0].Rule)
			}
			if !strings.Contains(diags[0].Message, tc.message) {
				t.Errorf("message %q does not contain %q", diags[0].Message, tc.message)
			}
		})
	}
}

// TestParseDirectivesWellFormed checks a valid directive parses into
// its rule and reason, and that look-alike prefixes are not claimed.
func TestParseDirectivesWellFormed(t *testing.T) {
	known := map[string]bool{"determinism/wallclock": true}
	src := "package p\n\n" +
		"//flashvet:allow determinism/wallclock boot stamp only\n" +
		"var x = 1\n\n" +
		"//flashvet:allowlist not our directive\n" +
		"var y = 2\n"
	pkg := parseTestPackage(t, src)
	dirs, diags := parseDirectives(pkg, known)
	if len(diags) != 0 {
		t.Fatalf("want no malformed diagnostics, got %d: %v", len(diags), diags)
	}
	if len(dirs) != 1 {
		t.Fatalf("want one directive, got %d", len(dirs))
	}
	if dirs[0].rule != "determinism/wallclock" {
		t.Errorf("rule = %q", dirs[0].rule)
	}
	if dirs[0].reason != "boot stamp only" {
		t.Errorf("reason = %q", dirs[0].reason)
	}
	if dirs[0].line != 3 {
		t.Errorf("line = %d, want 3", dirs[0].line)
	}
}
