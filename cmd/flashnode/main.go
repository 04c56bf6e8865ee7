// Command flashnode runs a single offchain protocol node as a
// standalone TCP daemon — the deployment shape of the paper's prototype,
// where "each node of an offchain network [is] a single process ...
// bound to a unique ip address and port number tuple" (§5.2).
//
// The node reads three text files at launch (mirroring the prototype,
// which "reads the network topology from a local file at launch time"):
//
//	-topology  edge list ("a b" per line, '#' comments)
//	-channels  channel state: "a b balAB balBA feeAB feeBA" per line
//	           (only lines where a or b equals this node's ID apply;
//	           a fee rate left out is 0, a malformed, negative or
//	           non-finite one an error)
//	-peers     address registry: "id host:port" per line
//
// Example (3-node line, run in three shells):
//
//	flashnode -id 0 -listen 127.0.0.1:7000 -topology topo.txt -channels ch.txt -peers peers.txt
//	flashnode -id 1 -listen 127.0.0.1:7001 ...
//	flashnode -id 2 -listen 127.0.0.1:7002 ...
//
// With -pay RECEIVER:AMOUNT the node routes one payment with Flash at
// the paper's settings (k = 20 elephant paths, m = 4 mice paths per
// receiver) and exits with status 0 on success; otherwise it serves
// until interrupted (SIGINT or SIGTERM), printing the router's final
// statistics on the way out.
//
// -telemetry ADDR serves live observability while the node runs:
// /metrics (Prometheus text), /metrics.json (JSON lines), /flows
// (JSONL flow records; ?follow=1 streams) and /debug/pprof/.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/pcn"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// testHookPaid, when set, is called after -pay's payment with the
// telemetry server's address and the router, once the router's gauges
// are set and before the server closes.
var testHookPaid func(addr string, router *core.Flash)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flashnode", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		id       = fs.Int("id", -1, "this node's ID (required)")
		listen   = fs.String("listen", "127.0.0.1:0", "listen address")
		topoPath = fs.String("topology", "", "edge-list topology file (required)")
		chanPath = fs.String("channels", "", "channel balance/fee file (required)")
		peerPath = fs.String("peers", "", "peer address registry file (required)")
		pay      = fs.String("pay", "", "optional one-shot payment RECEIVER:AMOUNT, routed with Flash")
		timeout  = fs.Duration("timeout", 5*time.Second, "protocol reply timeout")
		telAddr  = fs.String("telemetry", "", "serve /metrics, /flows and pprof on this address (e.g. 127.0.0.1:9090)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *id < 0 || *topoPath == "" || *chanPath == "" || *peerPath == "" {
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "flashnode:", err)
		return 1
	}

	g, err := loadTopology(*topoPath)
	if err != nil {
		return fail(err)
	}
	n, err := node.New(node.Config{
		ID: topo.NodeID(*id), Graph: g, ListenAddr: *listen, Timeout: *timeout,
	})
	if err != nil {
		return fail(err)
	}
	defer n.Close()
	fmt.Fprintf(stdout, "flashnode %d listening on %s (%d nodes, %d channels)\n",
		*id, n.Addr(), g.NumNodes(), g.NumChannels())

	peers, err := loadPeers(*peerPath)
	if err != nil {
		return fail(err)
	}
	n.SetPeers(peers)
	if err := loadChannels(n, g, *chanPath); err != nil {
		return fail(err)
	}

	router := core.New(core.DefaultConfig(math.Inf(1))) // single payments: mice path is fine

	var flows *telemetry.FlowLog
	var payLatency *telemetry.Histogram
	var srv *telemetry.Server
	publish := func() {} // sets the router's gauges; the router is this goroutine's
	if *telAddr != "" {
		reg := telemetry.NewRegistry()
		telemetry.RegisterRuntimeMetrics(reg)
		publish = sim.RegisterRouterMetrics(reg, router.Name(), router)
		reg.GaugeFunc("node_messages_sent_total",
			"Protocol messages written to peer connections by this node.",
			func() float64 { return float64(n.MessagesSent()) })
		payLatency = reg.Histogram("node_payment_latency_seconds",
			"Wall-clock routing latency of payments sent by this node.",
			telemetry.ExpBuckets(0.0001, 10, 8))
		flows = telemetry.NewFlowLog(1024)
		srv, err = telemetry.NewServer(*telAddr, reg, flows)
		if err != nil {
			return fail(err)
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "flashnode %d telemetry on http://%s/metrics\n", *id, srv.Addr())
	}

	if *pay != "" {
		var receiver topo.NodeID
		var amount float64
		if _, err := fmt.Sscanf(*pay, "%d:%f", &receiver, &amount); err != nil {
			return fail(err)
		}
		sess, err := n.NewSession(receiver, amount)
		if err != nil {
			return fail(err)
		}
		start := time.Now()
		rerr := router.Route(sess)
		elapsed := time.Since(start)
		publish()
		if payLatency != nil {
			payLatency.Observe(elapsed.Seconds())
		}
		if flows != nil {
			emitNodeFlow(flows, router.Name(), n.ID(), sess, amount, elapsed, rerr == nil)
		}
		if testHookPaid != nil && srv != nil {
			testHookPaid(srv.Addr(), router)
		}
		if rerr != nil {
			fmt.Fprintf(stdout, "payment of %g to %d FAILED after %v: %v\n", amount, receiver, elapsed, rerr)
			printStats(stdout, router)
			return 1
		}
		fmt.Fprintf(stdout, "payment of %g to %d delivered in %v over %d path(s), %d probe messages, %g fees paid\n",
			amount, receiver, elapsed, sess.PathsUsed(), sess.ProbeMessages(), sess.FeesPaid())
		printStats(stdout, router)
		return 0
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(stdout, "flashnode: shutting down")
	printStats(stdout, router)
	return 0
}

// printStats renders the router's final counters, the numbers the
// simulator reports per run, so a daemon shutdown (or one-shot -pay)
// leaves the same audit trail on stdout.
func printStats(w io.Writer, router *core.Flash) {
	st := router.Stats()
	fmt.Fprintf(w, "router stats: elephants=%d mice=%d tableHits=%d tableMisses=%d tableEntries=%d invalidations=%d evictions=%d pathsReplaced=%d threshold=%g\n",
		st.Elephants, st.Mice, st.TableHits, st.TableMisses, st.TableEntries,
		st.TableInvalidations, st.TableEvictions, st.PathsReplaced, router.Threshold())
}

// emitNodeFlow records the one-shot payment as a telemetry flow record
// so -pay runs with -telemetry leave an inspectable trace on /flows.
func emitNodeFlow(sink telemetry.Sink, scheme string, sender topo.NodeID, sess *node.Session, amount float64, elapsed time.Duration, delivered bool) {
	r := telemetry.FlowRecord{
		Scheme:         scheme,
		Sender:         int64(sender),
		Receiver:       int64(sess.Receiver()),
		Amount:         amount,
		Class:          telemetry.ClassMouse, // threshold is +Inf for one-shot payments
		Attempts:       1,
		ProbeRounds:    sess.ProbeOps(),
		ProbeMessages:  int64(sess.ProbeMessages()),
		CommitMessages: int64(sess.CommitMessages()),
		Paths:          sess.PathsUsed(),
		Fees:           sess.FeesPaid(),
		Complete:       elapsed.Seconds(),
		WallNS:         elapsed.Nanoseconds(),
		Outcome:        telemetry.OutcomeFailed,
	}
	if delivered {
		r.Outcome = telemetry.OutcomeDelivered
	}
	sink.Emit(&r)
}

func loadTopology(path string) (*topo.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return topo.ReadEdgeList(f)
}

// loadPeers reads one node ID and its address per line, nothing more.
func loadPeers(path string) (map[topo.NodeID]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	peers := make(map[topo.NodeID]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var id topo.NodeID
		var addr string
		if _, err := fmt.Sscanf(line, "%d %s", &id, &addr); err != nil {
			return nil, fmt.Errorf("peers file: %q: %w", line, err)
		}
		if n := len(strings.Fields(line)); n > 2 {
			return nil, fmt.Errorf("peers file: %q: %d fields, want 2", line, n)
		}
		peers[id] = addr
	}
	return peers, sc.Err()
}

// loadChannels applies the channel lines adjacent to node n. A line
// needs its two node IDs and two balances; a fee rate it leaves out is
// 0, but one it gives must parse, and a seventh field is an error.
func loadChannels(n *node.Node, g *topo.Graph, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := len(strings.Fields(line))
		if fields > 6 {
			return fmt.Errorf("channels file: %q: %d fields, want at most 6", line, fields)
		}
		var a, b topo.NodeID
		var balAB, balBA, feeAB, feeBA float64
		cnt, err := fmt.Sscanf(line, "%d %d %f %f %f %f", &a, &b, &balAB, &balBA, &feeAB, &feeBA)
		if err != nil && (cnt < 4 || cnt < fields) {
			return fmt.Errorf("channels file: %q: field %d: %w", line, cnt+1, err)
		}
		switch n.ID() {
		case a:
			if err := n.SetChannel(b, balAB, balBA, pcn.FeeSchedule{Rate: feeAB}, pcn.FeeSchedule{Rate: feeBA}); err != nil {
				return err
			}
		case b:
			if err := n.SetChannel(a, balBA, balAB, pcn.FeeSchedule{Rate: feeBA}, pcn.FeeSchedule{Rate: feeAB}); err != nil {
				return err
			}
		}
	}
	return sc.Err()
}
