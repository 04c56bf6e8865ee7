package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// fixtures is where the analyzers' seeded findings live, relative to the
// module root (flashvet resolves package directories from there).
const fixtures = "./internal/analysis/testdata/src/"

// goldenCases are the flashvet invocations whose exit code, stdout and
// stderr are pinned byte for byte, with the module root masked.
var goldenCases = []struct {
	name string
	args []string
}{
	{"clean", []string{fixtures + "determinism/other"}},
	{"finding-determinism", []string{fixtures + "determinism/sim"}},
	{"finding-lockorder", []string{fixtures + "lockorder/pcn"}},
	{"finding-doccomment", []string{fixtures + "doccomment/core"}},
	{"exit-missing-dir", []string{"./no/such/dir"}},
	{"exit-bad-flag", []string{"-bogus"}},
	{"catalogue", []string{"-catalogue"}},
}

// TestGolden runs each golden case through run and compares exit code,
// stdout and stderr with testdata/<name>.golden. -update rewrites them.
func TestGolden(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(c.args, &stdout, &stderr)
			got := fmt.Sprintf("$ flashvet %s\nexit %d\n-- stdout --\n%s-- stderr --\n%s",
				strings.Join(c.args, " "), code, stdout.String(), stderr.String())
			got = strings.ReplaceAll(got, root, "$ROOT")
			path := filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("output differs from %s:\nwant:\n%s\ngot:\n%s", path, want, got)
			}
		})
	}
}
