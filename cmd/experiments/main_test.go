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

// goldenCases are invocations whose exit codes, stdout and stderr are
// pinned byte for byte.
var goldenCases = []struct {
	name string
	args []string
}{
	{"fig-3-4", []string{"-fig", "3,4"}},
	{"fig-8", []string{"-fig", "8"}},
	{"exit-unknown-figure", []string{"-fig", "3,bogus"}},
	{"exit-bad-flag", []string{"-bogus"}},
	{"help", []string{"-h"}},
}

// TestGolden runs each golden invocation through run and compares the
// transcript with testdata/<name>.golden. -update rewrites them.
func TestGolden(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(c.args, &stdout, &stderr)
			got := fmt.Sprintf("$ experiments %s\nexit %d\n-- stdout --\n%s-- stderr --\n%s",
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

// TestBadSelectionStartsNoServer checks that -fig is validated before
// the -telemetry server binds its address: a usage error exits 2 with
// nothing on stdout.
func TestBadSelectionStartsNoServer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-telemetry", "127.0.0.1:0", "-fig", "bogus"}, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
		t.Errorf("exit %d, stdout %q; want exit 2 and no telemetry banner", code, stdout.String())
	}
}
