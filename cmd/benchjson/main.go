// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON document, so CI can archive benchmark smoke
// runs (BENCH_*.json artifacts) and the performance trajectory of the
// hot paths — elephant probing latency, simulator throughput,
// events/sec — accumulates across commits instead of scrolling away in
// build logs.
//
// Usage:
//
//	go test -bench . -benchtime=1x -run xxx . | benchjson -out BENCH_smoke.json
//
// Lines that are not benchmark results (goos/pkg banners, PASS, ok)
// pass through to stderr untouched, so the human-readable stream
// survives piping.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	// Name is the full benchmark name including sub-benchmark path and
	// the -cpu suffix, e.g. "BenchmarkDynamicEngine/payments=10000/service=0-8".
	Name string `json:"name"`
	// Iterations is b.N for the run.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit → value for every reported pair: "ns/op",
	// "B/op", "allocs/op" and custom b.ReportMetric units such as
	// "probes/sec" or "events/sec".
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the document benchjson emits.
type Report struct {
	// Context carries the non-benchmark header lines (goos, goarch,
	// pkg, cpu) keyed by field name.
	Context map[string]string `json:"context,omitempty"`
	// Benchmarks lists the parsed results in input order.
	Benchmarks []Result `json:"benchmarks"`
}

// parseLine parses one `go test -bench` output line. It returns the
// result and true for benchmark lines, false for everything else.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	// The remainder is value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	if len(r.Metrics) == 0 {
		return Result{}, false
	}
	return r, true
}

// contextKey extracts a "key: value" header line (goos, pkg, cpu, …).
func contextKey(line string) (key, value string, ok bool) {
	for _, k := range []string{"goos", "goarch", "pkg", "cpu"} {
		if rest, found := strings.CutPrefix(line, k+": "); found {
			return k, strings.TrimSpace(rest), true
		}
	}
	return "", "", false
}

// convert reads bench output from in and writes the JSON report to
// out, echoing non-benchmark lines to echo.
func convert(in io.Reader, out, echo io.Writer) error {
	report := Report{Context: map[string]string{}}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if r, ok := parseLine(line); ok {
			report.Benchmarks = append(report.Benchmarks, r)
			continue
		}
		if k, v, ok := contextKey(line); ok {
			report.Context[k] = v
		}
		fmt.Fprintln(echo, line)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

func main() {
	outPath := flag.String("out", "", "write JSON here (default stdout)")
	flag.Parse()

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	if err := convert(os.Stdin, out, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
