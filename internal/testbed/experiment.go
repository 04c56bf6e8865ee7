package testbed

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/pcn"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Experiment is the paper's testbed evaluation (§5, Figures 12–13):
// for every capacity range, run and scheme, a fresh cluster of Nodes
// TCP nodes starts from the run's Cell and replays its Txns payments.
// Figures 12–13 and cmd/flashtestbed both run it.
type Experiment struct {
	Nodes, Txns, Runs int
	Seed              int64        // run r uses Seed + r·7919
	Schemes           []string     // delays are normalised by ShortestPath's, when listed
	Ranges            [][2]float64 // channel capacity intervals [lo, hi)
	Timeout           time.Duration
	Telemetry         Telemetry // observes every replay; Scheme is set per scheme
}

// Cell is one run of the experiment on one capacity range: the funded
// network every scheme starts from, the payments it replays and the
// threshold splitting them into mice and elephants.
type Cell struct {
	Net       *pcn.Network
	Payments  []trace.Payment
	Threshold float64
	Seed      int64 // node id's router is seeded with Seed + id
}

// NewCell builds the §5 cell for seed: a Watts–Strogatz graph of nodes
// vertices, txns Ripple-sized payments of which 90% are mice, and every
// channel funded with a total drawn uniformly from [lo, hi), split
// evenly (§5.2: "the capacity of each channel is set randomly from an
// interval").
func NewCell(nodes, txns int, seed int64, lo, hi float64) (*Cell, error) {
	g, err := topo.WattsStrogatz(nodes, 4, 0.3, stats.NewRNG(seed, 0x7E57))
	if err != nil {
		return nil, err
	}
	gen, err := trace.NewGenerator(trace.Config{
		Nodes: nodes, Graph: g, Sizes: trace.RippleSizes,
		RecurrenceProb: 0.86, ReceiverZipf: 1.6, SenderZipf: 1.0,
		PaymentsPerDay: 2000, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	payments := gen.Generate(txns)
	net := pcn.New(g)
	net.AssignBalancesUniform(stats.NewRNG(seed, 0xCAB), lo, hi)
	return &Cell{
		Net:       net,
		Payments:  payments,
		Threshold: core.ThresholdForMiceFraction(trace.Amounts(payments), 0.9),
		Seed:      seed,
	}, nil
}

// Routers returns the factory of scheme's per-node routers.
func (c *Cell) Routers(scheme string) RouterFactory {
	return func(id topo.NodeID) (route.Router, error) {
		r, err := sim.BuildRouter(sim.RouterSpec{Scheme: scheme, Threshold: c.Threshold, Seed: c.Seed + int64(id)})
		if sp, ok := r.(*baseline.Spider); ok {
			// The paper's prototype recomputes Spider's paths per
			// payment; disable memoisation so processing delay is
			// measured the same way.
			sp.SetCaching(false)
		}
		return r, err
	}
}

// replay boots a cluster loaded with the cell's network, replays the
// payments with scheme's routers and checks that every channel's two
// endpoints still agree.
func (c *Cell) replay(scheme string, timeout time.Duration, tel Telemetry) (sim.Metrics, error) {
	cl, err := NewCluster(c.Net.Graph(), timeout)
	if err != nil {
		return sim.Metrics{}, err
	}
	defer cl.Close()
	if err := cl.FromNetwork(c.Net); err != nil {
		return sim.Metrics{}, err
	}
	tel.Scheme = scheme
	m, err := cl.RunWorkload(c.Routers(scheme), c.Payments, c.Threshold, tel)
	if err != nil {
		return m, err
	}
	if err := cl.CheckConsistency(); err != nil {
		return m, fmt.Errorf("%s: %w", scheme, err)
	}
	return m, nil
}

// Run runs the experiment and writes one row per capacity range and
// scheme to w: success volume and ratio, and processing delay and mice
// delay normalised by ShortestPath's on the same range, each the mean
// over the runs.
func (e Experiment) Run(w io.Writer) error {
	type row struct{ volume, ratio, delay, miceDelay stats.Summary }
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "capacity\tscheme\tsucc.volume\tsucc.ratio\tnorm.delay\tnorm.mice.delay")
	for _, r := range e.Ranges {
		rows := make(map[string]*row, len(e.Schemes))
		for _, s := range e.Schemes {
			rows[s] = &row{}
		}
		for run := 0; run < e.Runs; run++ {
			cell, err := NewCell(e.Nodes, e.Txns, e.Seed+int64(run)*7919, r[0], r[1])
			if err != nil {
				return err
			}
			for _, s := range e.Schemes {
				m, err := cell.replay(s, e.Timeout, e.Telemetry)
				if err != nil {
					return err
				}
				rows[s].volume.Add(m.SuccessVolume)
				rows[s].ratio.Add(m.SuccessRatio())
				rows[s].delay.Add(float64(m.MeanDelay()))
				rows[s].miceDelay.Add(float64(m.MeanMiceDelay()))
			}
		}
		var spDelay, spMice float64
		if sp, ok := rows[sim.SchemeShortestPath]; ok {
			spDelay, spMice = sp.delay.Mean(), sp.miceDelay.Mean()
		}
		for _, s := range e.Schemes {
			v := rows[s]
			nd, nm := 1.0, 1.0
			if spDelay > 0 {
				nd = v.delay.Mean() / spDelay
			}
			if spMice > 0 {
				nm = v.miceDelay.Mean() / spMice
			}
			fmt.Fprintf(tw, "[%g,%g)\t%s\t%.4g\t%.1f%%\t%.2f\t%.2f\n",
				r[0], r[1], s, v.volume.Mean(), 100*v.ratio.Mean(), nd, nm)
		}
	}
	return tw.Flush()
}
