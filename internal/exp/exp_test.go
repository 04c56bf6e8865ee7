package exp

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// tinyOptions exercises the full harness at unit-test scale.
func tinyOptions(buf *bytes.Buffer) Options {
	return Options{Tiny: true, Seed: 1, Out: buf}
}

// TestEveryFigureRunsTiny drives each non-TCP catalogue figure end to
// end at Tiny scale and pins its output byte for byte to
// testdata/<name>-tiny.golden, named Fig3 … Fig11, Headline, Dynamic,
// Latency and one Ablation* per ablation table (file names
// lower-cased). -update rewrites the files.
func TestEveryFigureRunsTiny(t *testing.T) {
	for _, f := range Figures {
		figs := map[string]func(Options) error{}
		switch f.Name {
		case "12", "13": // TCP: TestTestbedFiguresRunTiny
			continue
		case "ablations":
			figs = map[string]func(Options) error{
				"AblationElephantK":    ablationElephantK,
				"AblationMiceOrder":    ablationMiceOrder,
				"AblationProbeAllK":    ablationProbeAllK,
				"AblationMaxFlowBound": ablationMaxFlowBound,
			}
		default:
			name := "Fig" + f.Name
			if f.Name[0] >= 'a' { // headline → Headline
				name = strings.ToUpper(f.Name[:1]) + f.Name[1:]
			}
			figs[name] = f.Run
		}
		for name, fn := range figs {
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				var buf bytes.Buffer
				if err := fn(tinyOptions(&buf)); err != nil {
					t.Fatal(err)
				}
				checkGolden(t, strings.ToLower(name), buf.String())
			})
		}
	}
}

// checkGolden compares got with testdata/<name>-tiny.golden, or
// rewrites the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+"-tiny.golden")
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
		t.Errorf("%s differs from %s:\nwant:\n%s\ngot:\n%s", name, path, want, got)
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
		{"fig12", fig12},
		{"fig13", fig13},
	} {
		var buf bytes.Buffer
		if err := f.fn(tinyOptions(&buf)); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		checkGolden(t, f.name, delayCols.ReplaceAllString(buf.String(), "$1 <delay> <delay>"))
	}
}

func TestOptionsScaling(t *testing.T) {
	paper := Options{}
	if paper.rippleNodes() != 1870 || paper.lightningNodes() != 2511 || paper.runs() != 5 ||
		paper.txns(2000) != 2000 || paper.seed() != 1 {
		t.Error("paper-scale sizes wrong")
	}
	tiny := Options{Tiny: true}
	if tiny.rippleNodes() != 60 || tiny.runs() != 1 || tiny.txns(2000) != 150 {
		t.Error("tiny sizes wrong")
	}
	if (Options{Seed: 9}).seed() != 9 {
		t.Error("seed override ignored")
	}
}

// TestParallelSweepOutputIdentical pins the pool contract: the sweep
// figures print byte-identical tables on one processor and on four,
// because each scenario cell is a deterministic function of the seed.
func TestParallelSweepOutputIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	render := func(procs int, fig func(Options) error) string {
		runtime.GOMAXPROCS(procs)
		var b strings.Builder
		if err := fig(Options{Tiny: true, Seed: 1, Out: &b}); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for name, fig := range map[string]func(Options) error{"Fig6": fig6, "Fig7": fig7} {
		seq := render(1, fig)
		par := render(4, fig)
		if seq != par {
			t.Errorf("%s output differs between GOMAXPROCS 1 and 4:\n--- seq ---\n%s\n--- par ---\n%s", name, seq, par)
		}
	}
}

// TestTopologyOverrideRunsTiny runs Figure 6 at Tiny scale over a
// snapshot file written into a temporary directory: the table has the
// generated run's shape but other numbers, two runs print the same
// bytes, and a missing file fails the figure.
func TestTopologyOverrideRunsTiny(t *testing.T) {
	snap, err := topo.GenerateSyntheticSnapshot(sim.KindRipple, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ripple.json")
	if err := topo.WriteSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	render := func(topology string) (string, error) {
		var buf bytes.Buffer
		o := tinyOptions(&buf)
		o.Topology = topology
		err := fig6(o)
		return buf.String(), err
	}
	generated, err := render("")
	if err != nil {
		t.Fatal(err)
	}
	first, err := render(path)
	if err != nil {
		t.Fatal(err)
	}
	second, err := render(path)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Errorf("two runs over %s differ:\n%s\nvs\n%s", path, first, second)
	}
	if first == generated {
		t.Error("the snapshot run printed the generated topology's table")
	}
	header := func(s string) string { return strings.Join(strings.SplitN(s, "\n", 5)[:4], "\n") }
	if header(first) != header(generated) {
		t.Errorf("the snapshot run's header differs:\n%s\nvs\n%s", header(first), header(generated))
	}
	if _, err := render(filepath.Join(t.TempDir(), "missing.json")); err == nil || !strings.Contains(err.Error(), "snapshot topology") {
		t.Errorf("missing snapshot: error %v, want one naming the snapshot topology", err)
	}
}
