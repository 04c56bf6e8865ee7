package exp

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/testbed"
)

// fig12 reproduces the 50-node testbed evaluation over real TCP nodes.
func fig12(o Options) error {
	nodes, txns := 50, 10000 // paper: 50 nodes, 10,000 transactions
	if o.Tiny {
		nodes, txns = 10, 60
	}
	return figTestbed(o, "Figure 12", nodes, txns)
}

// fig13 reproduces the 100-node testbed evaluation.
func fig13(o Options) error {
	nodes, txns := 100, 10000 // paper: 100 nodes, 10,000 transactions
	if o.Tiny {
		nodes, txns = 12, 60
	}
	return figTestbed(o, "Figure 13", nodes, txns)
}

// figTestbed runs one testbed.Experiment over the paper's comparison
// set (§5.2: "We also implement two baseline routing algorithms: Spider
// ... and a simple shortest path scheme") and capacity intervals.
func figTestbed(o Options, fig string, nodes, txns int) error {
	o.header(fig, fmt.Sprintf("testbed, %d TCP nodes, %d txns", nodes, txns))
	return testbed.Experiment{
		Nodes: nodes, Txns: txns, Runs: 1, Seed: o.seed(),
		Schemes: []string{sim.SchemeFlash, sim.SchemeSpider, sim.SchemeShortestPath},
		Ranges:  [][2]float64{{1000, 1500}, {1500, 2000}, {2000, 2500}},
		Timeout: 30 * time.Second,
	}.Run(o.Out)
}
