package exp

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/testbed"
	"repro/internal/topo"
	"repro/internal/trace"
)

// testbedSchemes is the paper's testbed comparison set (§5.2: "We also
// implement two baseline routing algorithms: Spider ... and a simple
// shortest path scheme").
var testbedSchemes = []string{sim.SchemeFlash, sim.SchemeSpider, sim.SchemeShortestPath}

// testbedRanges are the paper's capacity intervals.
var testbedRanges = [][2]float64{{1000, 1500}, {1500, 2000}, {2000, 2500}}

// Fig12 reproduces the 50-node testbed evaluation over real TCP nodes.
func Fig12(o Options) error {
	nodes, txns := 30, 800
	if o.Full {
		nodes, txns = 50, 10000 // paper: 50 nodes, 10,000 transactions
	}
	if o.Tiny {
		nodes, txns = 10, 60
	}
	return figTestbed(o, "Figure 12", nodes, txns)
}

// Fig13 reproduces the 100-node testbed evaluation.
func Fig13(o Options) error {
	nodes, txns := 40, 800
	if o.Full {
		nodes, txns = 100, 10000 // paper: 100 nodes, 10,000 transactions
	}
	if o.Tiny {
		nodes, txns = 12, 60
	}
	return figTestbed(o, "Figure 13", nodes, txns)
}

func figTestbed(o Options, fig string, nodes, txns int) error {
	o.header(fig, fmt.Sprintf("testbed, %d TCP nodes, %d txns", nodes, txns))
	w := o.table("capacity\tscheme\tsucc.volume\tsucc.ratio\tnorm.delay\tnorm.mice.delay")
	for _, r := range testbedRanges {
		type res struct {
			volume, ratio, delay, miceDelay float64
		}
		byScheme := map[string]res{}
		rng := stats.NewRNG(o.seed(), 0x7E57)
		g, err := topo.WattsStrogatz(nodes, 4, 0.3, rng)
		if err != nil {
			return err
		}
		gen, err := trace.NewGenerator(trace.Config{
			Nodes: nodes, Graph: g, Sizes: trace.RippleSizes,
			RecurrenceProb: 0.86, ReceiverZipf: 1.6, SenderZipf: 1.0,
			PaymentsPerDay: 2000, Seed: o.seed(),
		})
		if err != nil {
			return err
		}
		payments := gen.Generate(txns)
		threshold := core.ThresholdForMiceFraction(trace.Amounts(payments), 0.9)

		for _, scheme := range testbedSchemes {
			c, err := testbed.NewCluster(g, 30*time.Second)
			if err != nil {
				return err
			}
			balRNG := stats.NewRNG(o.seed(), 0xCAB)
			if err := c.SetBalancesUniform(balRNG, r[0], r[1]); err != nil {
				c.Close()
				return err
			}
			factory := func(id topo.NodeID) (route.Router, error) {
				r, err := sim.BuildRouter(sim.RouterSpec{Scheme: scheme, Threshold: threshold, Seed: o.seed() + int64(id)})
				if sp, ok := r.(*baseline.Spider); ok {
					// The paper's prototype recomputes Spider's paths per
					// payment; disable memoisation so processing delay is
					// measured the same way.
					sp.SetCaching(false)
				}
				return r, err
			}
			m, err := c.RunWorkload(factory, payments, threshold)
			if err != nil {
				c.Close()
				return err
			}
			if err := c.CheckConsistency(); err != nil {
				c.Close()
				return fmt.Errorf("%s: %w", scheme, err)
			}
			c.Close()
			byScheme[scheme] = res{
				volume:    m.SuccessVolume,
				ratio:     m.SuccessRatio(),
				delay:     float64(m.MeanDelay()),
				miceDelay: float64(m.MeanMiceDelay()),
			}
		}
		sp := byScheme[sim.SchemeShortestPath]
		for _, scheme := range testbedSchemes {
			v := byScheme[scheme]
			nd, nm := 1.0, 1.0
			if sp.delay > 0 {
				nd = v.delay / sp.delay
			}
			if sp.miceDelay > 0 {
				nm = v.miceDelay / sp.miceDelay
			}
			fmt.Fprintf(w, "[%g,%g)\t%s\t%.4g\t%.1f%%\t%.2f\t%.2f\n",
				r[0], r[1], scheme, v.volume, 100*v.ratio, nd, nm)
		}
	}
	return w.Flush()
}
