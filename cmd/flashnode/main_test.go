package main

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/pcn"
	"repro/internal/topo"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenCases are the flashnode invocations whose exit code, stdout and
// stderr are pinned byte for byte. In args, {dir} is the directory
// holding the topology, channel and peer files, and {addr} the address
// the peer file gives node 0.
var goldenCases = []struct {
	name string
	args []string
}{
	{"pay-delivered", []string{"-id", "0", "-listen", "{addr}", "-topology", "{dir}/topo.edges", "-channels", "{dir}/channels.txt", "-peers", "{dir}/peers.txt", "-pay", "2:10"}},
	{"pay-nan", []string{"-id", "0", "-listen", "{addr}", "-topology", "{dir}/topo.edges", "-channels", "{dir}/channels.txt", "-peers", "{dir}/peers.txt", "-pay", "2:NaN"}},
	{"exit-missing-flags", []string{"-id", "0", "-topology", "{dir}/topo.edges"}},
	{"exit-bad-pay", []string{"-id", "0", "-listen", "{addr}", "-topology", "{dir}/topo.edges", "-channels", "{dir}/channels.txt", "-peers", "{dir}/peers.txt", "-pay", "2-10"}},
	{"exit-bad-channels", []string{"-id", "0", "-listen", "{addr}", "-topology", "{dir}/topo.edges", "-channels", "{dir}/bad-channels.txt", "-peers", "{dir}/peers.txt", "-pay", "2:10"}},
	{"exit-unreadable-file", []string{"-id", "0", "-topology", "{dir}/missing.edges", "-channels", "{dir}/channels.txt", "-peers", "{dir}/peers.txt"}},
}

// Wall-clock and address columns of the output.
var (
	addrRe    = regexp.MustCompile(`127\.0\.0\.1:\d+`)
	elapsedRe = regexp.MustCompile(`(delivered in|FAILED after) [0-9.]+[nµm]?s`)
)

// startPeers writes a 3-node line 0-1-2 (balance 100 each way, fee rate
// 1%) into dir, starts nodes 1 and 2 in-process, and returns the address
// the peer file reserves for node 0, which the invocation listens on.
func startPeers(t *testing.T, dir string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr0 := ln.Addr().String()
	ln.Close()

	g := topo.Line(3)
	registry := map[topo.NodeID]string{0: addr0}
	var peers []*node.Node
	for _, id := range []topo.NodeID{1, 2} {
		n, err := node.New(node.Config{ID: id, Graph: g, Timeout: 3 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		registry[id] = n.Addr()
		peers = append(peers, n)
	}
	fee := pcn.FeeSchedule{Rate: 0.01}
	for _, n := range peers {
		n.SetPeers(registry)
		for _, v := range g.Neighbors(n.ID()) {
			if err := n.SetChannel(v, 100, 100, fee, fee); err != nil {
				t.Fatal(err)
			}
		}
	}
	files := map[string]string{
		"topo.edges":   "0 1\n1 2\n",
		"channels.txt": "# a b balAB balBA feeAB feeBA\n0 1 100 100 0.01 0.01\n1 2 100 100 0.01 0.01\n",
		// A fee field that is there but does not parse.
		"bad-channels.txt": "0 1 100 100 abc\n",
		"peers.txt":        fmt.Sprintf("0 %s\n1 %s\n2 %s\n", addr0, registry[1], registry[2]),
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return addr0
}

// TestGolden runs each golden case through run against a fresh pair of
// peers and compares exit code, stdout and stderr with
// testdata/<name>.golden, addresses and elapsed times masked. -update
// rewrites them.
func TestGolden(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			addr := startPeers(t, dir)
			args := make([]string, len(c.args))
			for i, a := range c.args {
				args[i] = strings.NewReplacer("{dir}", dir, "{addr}", addr).Replace(a)
			}
			var stdout, stderr bytes.Buffer
			code := run(args, &stdout, &stderr)
			mask := func(s string) string {
				s = strings.ReplaceAll(s, dir, "{dir}")
				s = addrRe.ReplaceAllString(s, "<addr>")
				return elapsedRe.ReplaceAllString(s, "$1 <elapsed>")
			}
			got := fmt.Sprintf("$ flashnode %s\nexit %d\n-- stdout --\n%s-- stderr --\n%s",
				strings.Join(c.args, " "), code, mask(stdout.String()), mask(stderr.String()))
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
