// Command flashbench runs the repository's benchmark (see
// ../../README.md). One workload per process:
//
//	go run -C benchmark ./cmd/flashbench -workload ripple-mixed -seed 1 -seconds 10 -trace 0
//
// prints a report line and then, as the last line of standard output,
// {"correct", "attempted", "failed", "metrics"} — the end-to-end
// metrics with -trace 0, the per-layer metrics with -trace 1.
// -workload all re-executes this binary once per workload and run, so
// each has its own process (and its own peak RSS), and prints medians
// and quartiles over the runs.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"

	"repro/benchmark/harness"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", harness.RunSeconds, "host seconds of timed reps in an untraced run")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		smoke    = flag.Bool("smoke", false, "every workload at ~1/50 size")
		out      = flag.String("out", "out", "directory the traced run writes spans to")
		runs     = flag.Int("runs", 1, "with -workload all: runs per workload")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	opt := harness.Options{Seed: *seed, Seconds: *seconds, Smoke: *smoke, OutDir: *out}
	var err error
	switch {
	case *manifest:
		err = harness.WriteManifest(os.Stdout)
	case *workload == "all":
		err = runAll(opt, *trace, *runs)
	default:
		err = runOne(*workload, opt, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "flashbench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its two lines.
func runOne(name string, opt harness.Options, traced bool) error {
	spec, err := harness.WorkloadByName(name)
	if err != nil {
		return err
	}
	run := harness.RunEndToEnd
	if traced {
		run = harness.RunTraced
	}
	res, rep, err := run(spec, opt)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if err := enc.Encode(res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: checks failed: %v", name, rep.Problems)
	}
	return nil
}

// runAll runs every workload `runs` times, each in a child process,
// and prints the summary over the runs.
func runAll(opt harness.Options, trace, runs int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	sum := harness.NewSummary(opt, trace == 1)
	for run := 0; run < runs; run++ {
		for _, spec := range harness.Workloads {
			args := []string{
				"-workload", spec.Name,
				"-seed", strconv.FormatInt(opt.Seed, 10),
				"-seconds", strconv.FormatFloat(opt.Seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(trace),
				"-out", opt.OutDir,
			}
			if opt.Smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output() // waits for the child to end
			if err != nil {
				return fmt.Errorf("%s, run %d: %w", spec.Name, run+1, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			if len(lines) != 2 {
				return fmt.Errorf("%s, run %d: want a report and a result line, got %d lines", spec.Name, run+1, len(lines))
			}
			if err := sum.Add(lines[0], lines[1]); err != nil {
				return fmt.Errorf("%s, run %d: %w", spec.Name, run+1, err)
			}
			fmt.Fprintf(os.Stderr, "flashbench: %s run %d/%d done\n", spec.Name, run+1, runs)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(sum)
}
