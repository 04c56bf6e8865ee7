// Testbed: boot a 12-node offchain network of real TCP protocol nodes
// on loopback, replay a workload through Flash, and verify that every
// channel's two parties still agree on its balances — the prototype
// experiment of the paper's §5 in miniature.
//
// Run with:
//
//	go run ./examples/testbed
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	flash "repro"
	"repro/internal/core"
	"repro/internal/testbed"
	"repro/internal/trace"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	g, err := flash.WattsStrogatz(12, 4, 0.3, rng)
	if err != nil {
		log.Fatal(err)
	}

	cluster, err := flash.NewCluster(g, 5*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	fmt.Printf("booted %d TCP nodes; node 0 listens on %s\n",
		g.NumNodes(), cluster.Node(0).Addr())

	net := flash.NewNetwork(g)
	net.AssignBalancesUniform(rng, 1000, 1500)
	if err := cluster.FromNetwork(net); err != nil {
		log.Fatal(err)
	}
	fundsBefore := cluster.TotalFunds()

	gen, err := flash.NewTraceGenerator(trace.Config{
		Nodes: 12, Graph: g, Sizes: flash.RippleSizes,
		RecurrenceProb: 0.86, ReceiverZipf: 1.6, SenderZipf: 1.0,
		PaymentsPerDay: 1000, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	payments := gen.Generate(150)
	threshold := flash.ThresholdForMiceFraction(trace.Amounts(payments), 0.9)

	factory := func(id flash.NodeID) (flash.Router, error) {
		cfg := core.DefaultConfig(threshold)
		cfg.Seed = int64(id)
		return core.New(cfg), nil
	}
	m, err := cluster.RunWorkload(factory, payments, threshold, testbed.Telemetry{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("replayed %d payments over TCP:\n", m.Payments)
	fmt.Printf("  success ratio:   %.1f%%\n", 100*m.SuccessRatio())
	fmt.Printf("  success volume:  %.4g\n", m.SuccessVolume)
	fmt.Printf("  probe messages:  %d\n", m.ProbeMessages)
	fmt.Printf("  mean delay:      %v\n", m.MeanDelay().Round(time.Microsecond))

	if err := cluster.CheckConsistency(); err != nil {
		log.Fatalf("channel views diverged: %v", err)
	}
	drift := cluster.TotalFunds() - fundsBefore
	fmt.Printf("all channel views consistent; total funds drift %.2g\n", drift)
}
