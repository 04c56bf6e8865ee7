package exp

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// tinyOptions exercises the full harness at unit-test scale.
func tinyOptions(buf *bytes.Buffer) Options {
	return Options{Tiny: true, Seed: 1, Out: buf}
}

// TestEveryFigureRunsTiny drives each figure-regeneration function end
// to end at Tiny scale and checks it emits its banner and at least one
// data row.
func TestEveryFigureRunsTiny(t *testing.T) {
	figs := []struct {
		name string
		fn   func(Options) error
		want string
	}{
		{"Fig3", Fig3, "Figure 3"},
		{"Fig4", Fig4, "Figure 4"},
		{"Fig6", Fig6, "Figure 6"},
		{"Fig7", Fig7, "Figure 7"},
		{"Fig8", Fig8, "Figure 8"},
		{"Fig9", Fig9, "Figure 9"},
		{"Fig10", Fig10, "Figure 10"},
		{"Fig11", Fig11, "Figure 11"},
		{"Headline", Headline, "Headline"},
		{"Dynamic", Dynamic, "Dynamic scenarios"},
		{"Latency", Latency, "Latency model"},
		{"AblationElephantK", AblationElephantK, "elephant path budget"},
		{"AblationMiceOrder", AblationMiceOrder, "mice path order"},
		{"AblationProbeAllK", AblationProbeAllK, "Algorithm 1 termination"},
		{"AblationMaxFlowBound", AblationMaxFlowBound, "upper bound"},
	}
	for _, f := range figs {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			if err := f.fn(tinyOptions(&buf)); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if !strings.Contains(out, f.want) {
				t.Errorf("output missing %q:\n%s", f.want, out)
			}
			if strings.Count(out, "\n") < 3 {
				t.Errorf("suspiciously short output:\n%s", out)
			}
		})
	}
}

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// delayCols matches a testbed table row's last two columns, the
// normalised processing delays, which are wall-clock.
var delayCols = regexp.MustCompile(`(?m)^(\[.*\S)\s+\S+\s+\S+$`)

// TestTestbedFiguresRunTiny runs the TCP-backed figures (serially: they
// boot real listeners) and pins their output, delays masked, to
// testdata/<fig>-tiny.golden. -update rewrites the files.
func TestTestbedFiguresRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP testbed figures skipped in -short mode")
	}
	for _, f := range []struct {
		name string
		fn   func(Options) error
	}{
		{"fig12", Fig12},
		{"fig13", Fig13},
	} {
		var buf bytes.Buffer
		if err := f.fn(tinyOptions(&buf)); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		got := delayCols.ReplaceAllString(buf.String(), "$1 <delay> <delay>")
		path := filepath.Join("testdata", f.name+"-tiny.golden")
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s differs from %s:\nwant:\n%s\ngot:\n%s", f.name, path, want, got)
		}
	}
}

func TestOptionsScaling(t *testing.T) {
	full := Options{Full: true}
	if full.rippleNodes() != 1870 || full.lightningNodes() != 2511 || full.runs() != 5 {
		t.Error("full-scale sizes wrong")
	}
	tiny := Options{Tiny: true}
	if tiny.rippleNodes() != 60 || tiny.runs() != 1 || tiny.txns(2000) != 150 {
		t.Error("tiny sizes wrong")
	}
	def := Options{}
	if def.rippleNodes() != 500 || def.txns(2000) != 2000 || def.seed() != 1 {
		t.Error("default sizes wrong")
	}
	if (Options{Seed: 9}).seed() != 9 {
		t.Error("seed override ignored")
	}
}

// TestParallelSweepOutputIdentical pins the Workers contract: the sweep
// figures print byte-identical tables at any worker count, because each
// scenario cell is a deterministic function of the seed.
func TestParallelSweepOutputIdentical(t *testing.T) {
	render := func(workers int, fig func(Options) error) string {
		var b strings.Builder
		o := Options{Tiny: true, Seed: 1, Out: &b, Workers: workers}
		if err := fig(o); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for name, fig := range map[string]func(Options) error{"Fig6": Fig6, "Fig7": Fig7} {
		seq := render(1, fig)
		par := render(4, fig)
		if seq != par {
			t.Errorf("%s output differs between workers=1 and workers=4:\n--- seq ---\n%s\n--- par ---\n%s", name, seq, par)
		}
	}
}
