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

// goldenCases are snapshot sessions whose exit codes, stdout and
// stderr are pinned byte for byte. Each step is one invocation; in
// args, {dir} is a fresh directory the steps share.
var goldenCases = []struct {
	name  string
	steps [][]string
}{
	{"gen-stats", [][]string{
		{"gen", "-kind", "ripple", "-nodes", "50", "-seed", "3", "-out", "{dir}/r.edges"},
		{"stats", "-in", "{dir}/r.edges"},
	}},
	{"gen-convert-stats", [][]string{
		{"gen", "-kind", "lightning", "-nodes", "40", "-out", "{dir}/ln.json"},
		{"convert", "-in", "{dir}/ln.json", "-out", "{dir}/ln.edges"},
		{"stats", "-in", "{dir}/ln.edges"},
		{"stats", "-in", "{dir}/ln.json"},
	}},
	{"upper-case-json", [][]string{
		{"gen", "-nodes", "50", "-out", "{dir}/x.JSON"},
		{"stats", "-in", "{dir}/x.JSON"},
	}},
	{"exit-no-subcommand", [][]string{{}}},
	{"exit-unknown-subcommand", [][]string{{"bogus"}}},
	{"exit-bad-flag", [][]string{{"stats", "-bogus"}}},
	{"exit-missing-out", [][]string{{"gen", "-nodes", "50"}}},
	{"exit-missing-in", [][]string{{"convert", "-out", "{dir}/y.edges"}}},
	{"exit-unreadable-in", [][]string{{"stats", "-in", "{dir}/missing.edges"}}},
}

// TestGolden runs each golden session through run and compares the
// transcript with testdata/<name>.golden, the directory masked.
// -update rewrites them.
func TestGolden(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			var got strings.Builder
			for _, step := range c.steps {
				args := make([]string, len(step))
				for i, a := range step {
					args[i] = strings.ReplaceAll(a, "{dir}", dir)
				}
				var stdout, stderr bytes.Buffer
				code := run(args, &stdout, &stderr)
				mask := func(s string) string { return strings.ReplaceAll(s, dir, "{dir}") }
				fmt.Fprintf(&got, "$ snapshot %s\nexit %d\n-- stdout --\n%s-- stderr --\n%s",
					strings.Join(step, " "), code, mask(stdout.String()), mask(stderr.String()))
			}
			path := filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != string(want) {
				t.Errorf("output differs from %s:\nwant:\n%s\ngot:\n%s", path, want, got.String())
			}
		})
	}
}
