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

// goldenCases are the tracegen invocations whose exit code, stdout and
// stderr are pinned byte for byte.
var goldenCases = []struct {
	name string
	args []string
}{
	{"ripple-default", []string{"-n", "2000"}},
	{"bitcoin-cdf", []string{"-sizes", "bitcoin", "-cdf", "5"}},
	{"recurrence", []string{"-recurrence", "-days", "30"}},
	{"exit-unknown-sizes", []string{"-sizes", "lightning"}},
	{"exit-negative-n", []string{"-n", "-5"}},
	{"exit-zero-n", []string{"-n", "0"}},
	{"exit-zero-days", []string{"-recurrence", "-days", "0"}},
	{"exit-recurrence-nodes", []string{"-recurrence", "-nodes", "1000"}},
	{"exit-negative-cdf", []string{"-cdf", "-1"}},
	{"exit-bad-flag", []string{"-bogus"}},
}

// TestGolden runs each golden case through run and compares exit code,
// stdout and stderr with testdata/<name>.golden. -update rewrites them.
func TestGolden(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(c.args, &stdout, &stderr)
			got := fmt.Sprintf("$ tracegen %s\nexit %d\n-- stdout --\n%s-- stderr --\n%s",
				strings.Join(c.args, " "), code, stdout.String(), stderr.String())
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
