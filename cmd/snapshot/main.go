// Command snapshot generates, converts and inspects the channel-graph
// snapshots the simulator can run on (flashsim -topology, experiments
// -topology). Two on-disk formats are supported, chosen by extension:
// ".json" (in any case) is the lnd `describegraph` channel-graph shape,
// anything else a whitespace-separated "src dst capacity" edge list
// (the shape Ripple trust-line crawls are distributed in).
//
// Usage:
//
//	snapshot gen -kind ripple -nodes 10000 -seed 1 -out r10k.edges
//	snapshot convert -in lngraph.json -out lngraph.edges
//	snapshot stats -in r10k.edges
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/topo"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one subcommand and returns the exit code: 2 for a usage
// error (no or an unknown subcommand, a bad flag), 1 when the
// subcommand fails.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	var sub func(args []string, stdout, stderr io.Writer) error
	switch args[0] {
	case "gen":
		sub = runGen
	case "convert":
		sub = runConvert
	case "stats":
		sub = runStats
	case "-h", "-help", "--help", "help":
		usage(stderr)
		return 0
	default:
		fmt.Fprintf(stderr, "snapshot: unknown subcommand %q\n", args[0])
		usage(stderr)
		return 2
	}
	err := sub(args[1:], stdout, stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	}
	fmt.Fprintln(stderr, "snapshot:", err)
	return 1
}

// errUsage reports a bad flag the subcommand's flag set has printed.
var errUsage = errors.New("usage")

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  snapshot gen     -kind ripple|lightning|testbed -nodes N [-seed S] -out FILE
  snapshot convert -in FILE -out FILE
  snapshot stats   -in FILE

Formats are chosen by extension: .json (any case) = LN channel-graph
JSON, anything else = "src dst capacity" edge list.`)
}

// parse parses a subcommand's flags, printing errors and -h help to
// stderr. It returns flag.ErrHelp for -h and errUsage for a bad flag.
func parse(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(stderr)
	err := fs.Parse(args)
	if err != nil && err != flag.ErrHelp {
		return errUsage
	}
	return err
}

func runGen(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	kind := fs.String("kind", "ripple", "topology model: ripple, lightning or testbed")
	nodes := fs.Int("nodes", 1870, "number of nodes")
	seed := fs.Int64("seed", 1, "random seed (same seed, same snapshot)")
	out := fs.String("out", "", "output file (required)")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("gen: -out is required")
	}
	snap, err := topo.GenerateSyntheticSnapshot(*kind, *nodes, *seed)
	if err != nil {
		return err
	}
	return write(stdout, *out, snap)
}

func runConvert(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("convert", flag.ContinueOnError)
	in := fs.String("in", "", "input snapshot (required)")
	out := fs.String("out", "", "output snapshot (required)")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("convert: -in and -out are required")
	}
	snap, err := topo.LoadSnapshotFile(*in)
	if err != nil {
		return err
	}
	return write(stdout, *out, snap)
}

// write saves snap to path and reports its size.
func write(stdout io.Writer, path string, snap *topo.Snapshot) error {
	if err := topo.WriteSnapshotFile(path, snap); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s: %d nodes, %d channels\n", path, snap.Graph.NumNodes(), snap.Graph.NumChannels())
	return nil
}

func runStats(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	in := fs.String("in", "", "input snapshot (required)")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("stats: -in is required")
	}
	snap, err := topo.LoadSnapshotFile(*in)
	if err != nil {
		return err
	}
	g := snap.Graph
	degrees := make([]int, g.NumNodes())
	for _, e := range g.Channels() {
		degrees[e.A]++
		degrees[e.B]++
	}
	sort.Ints(degrees)
	caps := append([]float64(nil), snap.Capacity...)
	sort.Float64s(caps)
	total := 0.0
	for _, c := range caps {
		total += c
	}
	fmt.Fprintf(stdout, "nodes       %d\n", g.NumNodes())
	fmt.Fprintf(stdout, "channels    %d\n", g.NumChannels())
	if n := len(degrees); n > 0 {
		fmt.Fprintf(stdout, "degree      min %d / median %d / max %d\n", degrees[0], degrees[n/2], degrees[n-1])
	}
	if n := len(caps); n > 0 {
		fmt.Fprintf(stdout, "capacity    min %g / median %g / max %g / total %g\n", caps[0], caps[n/2], caps[n-1], total)
	}
	return nil
}
