package harness

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/testbed"
	"repro/internal/topo"
)

// tcpTimeout is the per-round-trip reply timeout of the cluster's
// nodes; a timeout is an infrastructure failure and fails the rep.
const tcpTimeout = 30 * time.Second

// tcpRig replays a workload over a loopback TCP cluster, one node per
// vertex, one closed-loop client.
type tcpRig struct {
	in      *Inputs
	cluster *testbed.Cluster
	procs   int // GOMAXPROCS before boot, restored by close

	// tracer, when set, records a span around every payment, Route call
	// and session operation of the next rep, and per-payment latencies.
	tracer *tracer
}

// bootTCP starts the cluster; the time goes into Phases.Boot.
//
// The cluster runs on one P. One closed-loop client means one message
// in flight, so one runnable goroutine at a time: a second P adds
// nothing but a cross-thread hand-off per hop, and on a shared VM the
// cost of that wake-up is the hypervisor's, not the program's — measured
// on the 2-vCPU box, two Ps read 940 payments/s with runs between 690
// and 1070, one P 1650/s with reps of a run within 3–5%.
func bootTCP(in *Inputs) (*tcpRig, error) {
	procs := runtime.GOMAXPROCS(1)
	start := time.Now()
	c, err := testbed.NewCluster(in.Graph, tcpTimeout)
	if err != nil {
		runtime.GOMAXPROCS(procs)
		return nil, fmt.Errorf("%s: cluster boot: %w", in.Spec.Name, err)
	}
	in.Phases.Boot = time.Since(start).Seconds()
	return &tcpRig{in: in, cluster: c, procs: procs}, nil
}

func (r *tcpRig) close() {
	r.cluster.Close()
	runtime.GOMAXPROCS(r.procs)
}

// rep implements rig: balances reset and one fresh Flash router per
// sender outside the timer, then the client loop — Node.NewSession →
// Route per payment — inside it.
func (r *tcpRig) rep() (repOutcome, error) {
	in, c := r.in, r.cluster
	if err := c.FromNetwork(in.NewNetwork()); err != nil {
		return repOutcome{}, err
	}
	routers := make(map[topo.NodeID]*core.Flash)
	for _, p := range in.Payments {
		if routers[p.Sender] == nil {
			cfg := core.DefaultConfig(in.Threshold)
			cfg.Seed = in.Seed + int64(p.Sender)
			routers[p.Sender] = core.New(cfg)
		}
	}
	fundsBefore := c.TotalFunds()
	msgsBefore := c.MessagesSent()

	var o repOutcome
	tr := r.tracer
	if tr != nil {
		o.latUS = make([]float64, 0, len(in.Payments))
	}
	var err error
	o.wall, o.mallocs, o.bytes, err = measured(func() error {
		for i, p := range in.Payments {
			var (
				start time.Time
				pay   int
			)
			if tr != nil {
				start = time.Now()
				pay = tr.begin(spanPayment, i, noParent)
			}
			sess, err := c.Node(p.Sender).NewSession(p.Receiver, p.Amount)
			if err != nil {
				return fmt.Errorf("payment %d: %w", p.ID, err)
			}
			var rerr error
			if tr == nil {
				rerr = routers[p.Sender].Route(sess)
			} else {
				rt := tr.begin(spanRoute, i, pay)
				rerr = routers[p.Sender].Route(&tracedSession{Session: sess, tr: tr, payment: i, parent: rt})
				tr.end(rt)
				tr.end(pay)
				o.latUS = append(o.latUS, float64(time.Since(start))/1e3)
			}
			if !sess.Finished() || errors.Is(rerr, node.ErrTimeout) {
				return fmt.Errorf("payment %d: session not settled cleanly: %v", p.ID, rerr)
			}
			o.netWait += sess.NetworkWait()
			o.res.Aggregate.Record(p.Amount, in.Threshold, 0,
				int64(sess.ProbeMessages()), int64(sess.CommitMessages()), sess.FeesPaid(), rerr == nil)
		}
		return nil
	})
	if err != nil {
		return o, err
	}
	o.wireMsgs = c.MessagesSent() - msgsBefore
	for _, fl := range routers {
		o.flash = addStats(o.flash, fl.Stats())
	}
	if err := c.CheckConsistency(); err != nil {
		return o, err
	}
	return o, checkRep(len(in.Payments), &o, fundsBefore, c.TotalFunds())
}

// addStats sums the router counters the layer metrics read.
func addStats(a, b core.Stats) core.Stats {
	a.Elephants += b.Elephants
	a.Mice += b.Mice
	a.TableHits += b.TableHits
	a.TableMisses += b.TableMisses
	a.PathsReplaced += b.PathsReplaced
	a.TableInvalidations += b.TableInvalidations
	a.TableEvictions += b.TableEvictions
	return a
}
