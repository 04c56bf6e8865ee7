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

	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenCase is one flashsim invocation whose exit code, stdout and
// stderr are pinned byte for byte (wall-clock figures masked).
type goldenCase struct {
	name string
	args []string
}

// goldenCases covers the flag surface: the static replay, the custom
// dynamic scenario, every catalogue preset, flags overriding a preset,
// JSON output, flow records, the usage errors and -h, whose usage text
// lists every flag.
func goldenCases() []goldenCase {
	cases := []goldenCase{
		{"static", []string{"-nodes", "80", "-txns", "60", "-runs", "2", "-seed", "3"}},
		{"static-knobs", []string{"-kind", "testbed", "-nodes", "30", "-txns", "40", "-runs", "1",
			"-scale", "2", "-mice", "0.8", "-k", "5", "-m", "0",
			"-retries", "2", "-probeworkers", "2", "-tablecap", "8", "-schemes", "Flash,Flash-NoOpt,MaxFlow-FullProbe"}},
		{"dynamic-churn", []string{"-dynamic", "-nodes", "60", "-duration", "10", "-rate", "10",
			"-churn", "2", "-rebalance", "1", "-latent", "5", "-arrival", "flash-crowd", "-peak", "3",
			"-k", "5", "-m", "0"}},
		{"dynamic-spans", []string{"-dynamic", "-nodes", "60", "-duration", "10", "-rate", "8",
			"-window", "2.5", "-service", "1", "-retries", "1", "-latency", "0.05", "-latencysigma", "0.4",
			"-deadline", "3", "-grieffrac", "0.2", "-griefhold", "6", "-control", "ewma,sender",
			"-arrival", "diurnal", "-scale", "4", "-mice", "0.85", "-tablecap", "16", "-seed", "9",
			"-schemes", "Flash,ShortestPath"}},
		{"override-griefing-deadline", []string{"-scenario", "griefing", "-nodes", "60", "-duration", "10", "-deadline", "0"}},
		{"override-demand-drift-control", []string{"-scenario", "demand-drift", "-nodes", "60", "-duration", "10", "-control", "off"}},
		{"override-contention-service", []string{"-scenario", "contention", "-nodes", "60", "-duration", "10", "-service", "0"}},
		{"override-latency-slo-probeworkers", []string{"-scenario", "latency-slo", "-nodes", "60", "-duration", "10", "-probeworkers", "4"}},
		{"topology-static", []string{"-topology", "testdata/ring.edges", "-kind", "lightning", "-txns", "40", "-runs", "1", "-schemes", "Flash,ShortestPath"}},
		{"topology-preset", []string{"-kind", "lightning", "-topology", "testdata/ring.edges", "-scenario", "hub-failure", "-duration", "10", "-rate", "5"}},
		{"json", []string{"-scenario", "latency-slo", "-nodes", "60", "-duration", "10", "-schemes", "Flash,Spider", "-json"}},
		{"flows", []string{"-dynamic", "-nodes", "40", "-duration", "4", "-rate", "4", "-schemes", "Flash", "-flows", "-"}},
		{"exit-static-json", []string{"-nodes", "40", "-txns", "10", "-json"}},
		{"exit-dynamic-replay", []string{"-dynamic", "-arrival", "replay", "-nodes", "40"}},
		{"exit-unknown-scenario", []string{"-scenario", "bogus"}},
		{"exit-static-mice", []string{"-kind", "ripple", "-nodes", "60", "-txns", "100", "-runs", "1", "-mice", "2"}},
		{"exit-bad-control", []string{"-dynamic", "-nodes", "40", "-duration", "4", "-control", "bogus"}},
		{"exit-diurnal-peak", []string{"-dynamic", "-arrival", "diurnal", "-peak", "3", "-nodes", "40", "-duration", "4", "-schemes", "Flash"}},
		{"help", []string{"-h"}},
	}
	for _, name := range sim.ScenarioNames {
		cases = append(cases, goldenCase{"preset-" + name, []string{"-scenario", name, "-nodes", "60", "-duration", "10"}})
	}
	return cases
}

// wallNanos matches a flow record's wallNs, the one wall-clock figure
// flashsim prints: the engine times each payment's Route calls into it
// because the benchmark's traced run reads FlowRecord.WallNS.
var wallNanos = regexp.MustCompile(`"wallNs":\d+`)

// mask replaces the wall-clock figures in a run's output.
func mask(out string) string {
	return wallNanos.ReplaceAllString(out, `"wallNs":<wall>`)
}

// TestGolden runs each golden case through run and compares exit code,
// stdout and stderr with testdata/<name>.golden. -update rewrites them.
func TestGolden(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(c.args, &stdout, &stderr)
			got := fmt.Sprintf("$ flashsim %s\nexit %d\n-- stdout --\n%s-- stderr --\n%s",
				strings.Join(c.args, " "), code, mask(stdout.String()), stderr.String())
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
				t.Errorf("output differs from %s:\n%s", path, firstDiff(string(want), got))
			}
		})
	}
}

// TestStaticRejectsBadControl checks that a bad -control spec is an
// error in static mode too, where the flag has no other effect.
func TestStaticRejectsBadControl(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-control", "bogus"}, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
		t.Errorf("exit %d, stdout %q; want exit 2 and no output", code, stdout.String())
	}
	if want := `flashsim: control: unknown policy "bogus"`; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
	}
}

// firstDiff reports the first line where want and got part.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\nwant %q\ngot  %q", i+1, wl, gl)
		}
	}
	return "(equal)"
}

// TestWorkersIsNotAFlag checks that flashsim offers no concurrent
// stations: -workers is an undefined flag, a usage error.
func TestWorkersIsNotAFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dynamic", "-workers", "2"}, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
		t.Errorf("exit %d, stdout %q; want exit 2 and no output", code, stdout.String())
	}
	if want := "flag provided but not defined: -workers"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
	}
}
