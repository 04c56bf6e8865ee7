package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenCases are the flashtestbed invocations whose exit code, stdout
// and stderr are pinned byte for byte (wall-clock delays masked).
var goldenCases = []struct {
	name string
	args []string
}{
	{"default-ranges", []string{"-nodes", "20", "-txns", "300"}},
	{"runs-2", []string{"-nodes", "20", "-txns", "300", "-runs", "2"}},
	{"schemes-subset", []string{"-nodes", "20", "-txns", "300", "-schemes", "Flash,Spider"}},
	{"single-range", []string{"-nodes", "20", "-txns", "300", "-ranges", "1500:2000", "-seed", "3"}},
	{"exit-bad-range", []string{"-nodes", "20", "-txns", "300", "-ranges", "1000:1500,bad"}},
	{"exit-unknown-scheme", []string{"-nodes", "20", "-txns", "300", "-schemes", "Flash,Bogus"}},
}

// delayCols matches a table row's last two columns, the normalised
// processing delays, which are wall-clock.
var delayCols = regexp.MustCompile(`(?m)^(\[.*\S)\s+\S+\s+\S+$`)

// TestGolden runs each golden case through run and compares exit code,
// stdout and stderr with testdata/<name>.golden. -update rewrites them.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP testbed runs skipped in -short mode")
	}
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(c.args, &stdout, &stderr)
			got := fmt.Sprintf("$ flashtestbed %s\nexit %d\n-- stdout --\n%s-- stderr --\n%s",
				strings.Join(c.args, " "), code,
				delayCols.ReplaceAllString(stdout.String(), "$1 <delay> <delay>"), stderr.String())
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

// TestTelemetryIsObserverOnly runs one invocation with and without
// -telemetry: apart from the line naming the endpoint, the output must
// not change.
func TestTelemetryIsObserverOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP testbed runs skipped in -short mode")
	}
	args := []string{"-nodes", "12", "-txns", "100", "-ranges", "1500:2000"}
	var plain, served, stderr bytes.Buffer
	if code := run(args, &plain, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if code := run(append(args, "-telemetry", "127.0.0.1:0"), &served, &stderr); code != 0 {
		t.Fatalf("-telemetry: exit %d: %s", code, stderr.String())
	}
	endpoint, rest, _ := strings.Cut(served.String(), "\n")
	if !strings.HasPrefix(endpoint, "# telemetry on http://127.0.0.1:") {
		t.Errorf("first line %q does not name the endpoint", endpoint)
	}
	if got, want := delayCols.ReplaceAllString(rest, "$1"), delayCols.ReplaceAllString(plain.String(), "$1"); got != want {
		t.Errorf("-telemetry changed the table:\nwant:\n%s\ngot:\n%s", want, got)
	}
}
