package analysis

import (
	"go/token"
	"path/filepath"
	"regexp"
	"testing"
)

// want is one expected-diagnostic clause from a `// want` comment.
type want struct {
	re      *regexp.Regexp
	matched bool
}

// wantClauseRe extracts the quoted clauses after a want marker:
// double-quoted or backquoted regexps.
var wantClauseRe = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// wantMarkRe finds the want marker itself. The optional +N offset lets
// a fixture expect a diagnostic N lines below the comment — needed
// when a same-line comment would change the analyzed program (e.g. it
// would count as a doc comment).
var wantMarkRe = regexp.MustCompile(`want(\+\d+)?[ \t]`)

// collectWants scans every fixture comment for `// want` markers and
// returns the expected diagnostics keyed by file:line.
func collectWants(t *testing.T, fset *token.FileSet, pkgs []*Package) map[string][]*want {
	t.Helper()
	wants := map[string][]*want{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					mark := wantMarkRe.FindStringSubmatchIndex(c.Text)
					if mark == nil {
						continue
					}
					offset := 0
					if mark[2] >= 0 {
						offset = atoi(c.Text[mark[2]+1 : mark[3]])
					}
					clauses := wantClauseRe.FindAllStringSubmatch(c.Text[mark[1]:], -1)
					if len(clauses) == 0 {
						continue
					}
					pos := fset.Position(c.Pos())
					key := posKey(pos.Filename, pos.Line+offset)
					for _, m := range clauses {
						expr := m[1]
						if m[2] != "" {
							expr = m[2]
						}
						re, err := regexp.Compile(expr)
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, expr, err)
						}
						wants[key] = append(wants[key], &want{re: re})
					}
				}
			}
		}
	}
	return wants
}

// posKey renders a file:line key.
func posKey(file string, line int) string {
	return file + ":" + itoa(line)
}

// atoi parses a small non-negative decimal; offsets are validated by
// wantMarkRe so no error path is needed.
func atoi(s string) int {
	n := 0
	for _, r := range s {
		n = n*10 + int(r-'0')
	}
	return n
}

// itoa avoids strconv for a tiny helper.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// runFixture loads one fixture group, runs the given analyzers, and
// checks the diagnostics against the group's want comments: every
// diagnostic must be wanted, and every want must be produced.
func runFixture(t *testing.T, group string, analyzers []*Analyzer) *Result {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src", group))
	if err != nil {
		t.Fatal(err)
	}
	loader := newLoader(root, "")
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("loading fixture group %s: %v", group, err)
	}
	res, err := Run(pkgs, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", group, err)
	}
	wants := collectWants(t, loader.Fset, pkgs)
	for _, d := range res.Diagnostics {
		pos := res.Fset.Position(d.Pos)
		text := d.Rule + ": " + d.Message
		matched := false
		for _, w := range wants[posKey(pos.Filename, pos.Line)] {
			if w.re.MatchString(text) {
				w.matched = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", res.Format(d))
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: expected diagnostic matching %q was not reported", key, w.re)
			}
		}
	}
	return res
}

func TestDeterminismFixtures(t *testing.T) {
	res := runFixture(t, "determinism", []*Analyzer{DeterminismAnalyzer})
	if len(res.Suppressed) == 0 {
		t.Error("expected the audited-exception fixture to exercise directive suppression")
	}
}

func TestLockOrderFixtures(t *testing.T) {
	runFixture(t, "lockorder", []*Analyzer{LockOrderAnalyzer})
}

func TestObserverFixtures(t *testing.T) {
	res := runFixture(t, "observer", []*Analyzer{ObserverAnalyzer})
	if len(res.Suppressed) != 1 {
		t.Errorf("want exactly one suppressed observer finding, got %d", len(res.Suppressed))
	}
}

func TestDocCommentFixtures(t *testing.T) {
	runFixture(t, "doccomment", []*Analyzer{DocCommentAnalyzer})
}

func TestDirectiveFixtures(t *testing.T) {
	res := runFixture(t, "directives", []*Analyzer{DeterminismAnalyzer})
	if len(res.Suppressed) != 2 {
		t.Errorf("want two suppressed findings (preceding-line and same-line directives), got %d", len(res.Suppressed))
	}
}

func TestTestOnlyFixtures(t *testing.T) {
	res := runFixture(t, "testonly", []*Analyzer{TestOnlyAnalyzer})
	if len(res.Suppressed) != 1 {
		t.Errorf("want exactly one suppressed testonly finding, got %d", len(res.Suppressed))
	}
}
