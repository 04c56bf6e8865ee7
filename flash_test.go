package flash_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"log"
	"math"
	"math/rand"
	"os"
	"regexp"
	"testing"
	"time"

	flash "repro"
	"repro/internal/trace"
)

// TestEndToEndSimulation drives the public API through a full
// mini-evaluation: network construction, workload generation, routing
// with every scheme, and metric collection.
func TestEndToEndSimulation(t *testing.T) {
	net, err := flash.BuildNetwork("ripple", 150, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := flash.DefaultTraceConfig(150)
	cfg.Graph = net.Graph()
	cfg.Seed = 42
	gen, err := flash.NewTraceGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	payments := gen.Generate(400)
	threshold := flash.ThresholdForMiceFraction(trace.Amounts(payments), 0.9)

	snap := net.Snapshot()
	volumes := map[string]float64{}
	for _, scheme := range []string{flash.SchemeFlash, flash.SchemeSpider,
		flash.SchemeSpeedyMurmurs, flash.SchemeShortestPath} {
		if err := net.Restore(snap); err != nil {
			t.Fatal(err)
		}
		r, err := flash.NewRouterByName(scheme, threshold, 1)
		if err != nil {
			t.Fatal(err)
		}
		m, err := flash.RunSimulation(net, r, payments, threshold)
		if err != nil {
			t.Fatal(err)
		}
		if m.Payments == 0 {
			t.Fatalf("%s: no payments", scheme)
		}
		volumes[scheme] = m.SuccessVolume
	}
	if volumes[flash.SchemeFlash] < volumes[flash.SchemeShortestPath] {
		t.Errorf("Flash (%.4g) should beat ShortestPath (%.4g) on volume",
			volumes[flash.SchemeFlash], volumes[flash.SchemeShortestPath])
	}
}

// TestSimulatorTestbedAgreement routes the same payments over the same
// starting state twice — once in memory, once over real TCP nodes — and
// requires identical success/failure outcomes (both substrates
// implement the same protocol semantics). ShortestPath is used because
// it is deterministic.
func TestSimulatorTestbedAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, err := flash.WattsStrogatz(12, 4, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	net := flash.NewNetwork(g)
	balRNG := rand.New(rand.NewSource(12))
	for _, e := range g.Channels() {
		total := 1000 + balRNG.Float64()*500
		if err := net.SetBalance(e.A, e.B, total/2, total/2); err != nil {
			t.Fatal(err)
		}
	}

	cluster, err := flash.NewCluster(g, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.FromNetwork(net); err != nil {
		t.Fatal(err)
	}

	cfg := flash.DefaultTraceConfig(12)
	cfg.Graph = g
	cfg.Seed = 13
	gen, err := flash.NewTraceGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	payments := gen.Generate(60)

	for i, p := range payments {
		if p.Sender == p.Receiver {
			continue
		}
		simRouter, _ := flash.NewRouterByName(flash.SchemeShortestPath, 0, 1)
		tx, err := net.Begin(p.Sender, p.Receiver, p.Amount)
		if err != nil {
			t.Fatal(err)
		}
		simErr := simRouter.Route(tx)

		tbRouter, _ := flash.NewRouterByName(flash.SchemeShortestPath, 0, 1)
		sess, err := cluster.Node(p.Sender).NewSession(p.Receiver, p.Amount)
		if err != nil {
			t.Fatal(err)
		}
		tbErr := tbRouter.Route(sess)

		if (simErr == nil) != (tbErr == nil) {
			t.Fatalf("payment %d (%d→%d, %.2f): sim err=%v, testbed err=%v",
				i, p.Sender, p.Receiver, p.Amount, simErr, tbErr)
		}
	}
	// Final states must agree channel by channel.
	if err := cluster.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Channels() {
		simAB := net.Balance(e.A, e.B)
		tbAB, _ := cluster.Node(e.A).Balances(e.B)
		if math.Abs(simAB-tbAB) > 1e-6 {
			t.Fatalf("channel %v: sim %v vs testbed %v", e, simAB, tbAB)
		}
	}
}

// TestScenarioHeadline runs a small Figure-6 cell and checks the
// paper's core comparative claims hold: Flash ≥ Spider on success
// volume, and Flash probes less than Spider.
func TestScenarioHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("headline scenario skipped in -short mode")
	}
	sc := flash.DefaultScenario("ripple", 300)
	sc.Txns = 800
	sc.Runs = 2
	results, err := flash.RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]flash.SchemeResult{}
	for _, r := range results {
		byName[r.Scheme] = r
	}
	vol := func(s string) float64 {
		return byName[s].Mean(func(m flash.Metrics) float64 { return m.SuccessVolume })
	}
	probes := func(s string) float64 {
		return byName[s].Mean(func(m flash.Metrics) float64 { return float64(m.ProbeMessages) })
	}
	if vol(flash.SchemeFlash) < vol(flash.SchemeSpider) {
		t.Errorf("Flash volume %.4g below Spider %.4g", vol(flash.SchemeFlash), vol(flash.SchemeSpider))
	}
	if probes(flash.SchemeFlash) >= probes(flash.SchemeSpider) {
		t.Errorf("Flash probes %.0f not below Spider %.0f", probes(flash.SchemeFlash), probes(flash.SchemeSpider))
	}
	if probes(flash.SchemeSpeedyMurmurs) != 0 || probes(flash.SchemeShortestPath) != 0 {
		t.Error("static schemes must not probe")
	}
}

// ExampleNewFlash builds a small payment channel network, routes one
// payment with Flash and inspects the result.
func ExampleNewFlash() {
	// A diamond network: two 2-hop routes from Alice (0) to Dave (3).
	//
	//        Bob (1)
	//       /        \
	//  Alice (0)    Dave (3)
	//       \        /
	//       Carol (2)
	g := flash.NewGraph(4)
	g.MustAddChannel(0, 1)
	g.MustAddChannel(1, 3)
	g.MustAddChannel(0, 2)
	g.MustAddChannel(2, 3)

	// Fund every channel with 60 per direction and give the Bob route a
	// steeper fee than the Carol route.
	net := flash.NewNetwork(g)
	for _, e := range g.Channels() {
		if err := net.SetBalance(e.A, e.B, 60, 60); err != nil {
			log.Fatal(err)
		}
	}
	net.SetFee(0, 1, flash.FeeSchedule{Rate: 0.02})
	net.SetFee(1, 3, flash.FeeSchedule{Rate: 0.02})
	net.SetFee(0, 2, flash.FeeSchedule{Rate: 0.001})
	net.SetFee(2, 3, flash.FeeSchedule{Rate: 0.001})

	// A Flash router: payments above 50 run the elephant pipeline
	// (modified max-flow probing + fee-minimising split); smaller ones
	// use the mice routing table.
	router := flash.NewFlash(flash.DefaultConfig(50))

	// Pay 100 — more than any single path can carry, so Flash must
	// split it across both routes, preferring the cheap one.
	tx, err := net.Begin(0, 3, 100)
	if err != nil {
		log.Fatal(err)
	}
	if err := router.Route(tx); err != nil {
		log.Fatalf("payment failed: %v", err)
	}
	fmt.Printf("delivered 100 from node 0 to node 3\n")
	fmt.Printf("  paths used:       %d\n", tx.PathsUsed())
	fmt.Printf("  probe messages:   %d\n", tx.ProbeMessages())
	fmt.Printf("  fees paid:        %.3f\n", tx.FeesPaid())
	fmt.Printf("  cheap route load: %.0f (of 60)\n", 60-net.Balance(0, 2))
	fmt.Printf("  steep route load: %.0f (of 60)\n", 60-net.Balance(0, 1))

	// A small recurring payment now rides the mice routing table: no
	// probing at all on a first-try success.
	mouse, err := net.Begin(0, 3, 2)
	if err != nil {
		log.Fatal(err)
	}
	if err := router.Route(mouse); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mouse payment: %d probe messages (routing-table hit)\n", mouse.ProbeMessages())
	// Output:
	// delivered 100 from node 0 to node 3
	//   paths used:       2
	//   probe messages:   8
	//   fees paid:        1.720
	//   cheap route load: 60 (of 60)
	//   steep route load: 40 (of 60)
	// mouse payment: 0 probe messages (routing-table hit)
}

// ExampleConfig splits an elephant payment across probed paths to
// minimise fees — the paper's program (1) — and compares it with
// Flash's fee program switched off (Config.DisableFeeOpt), on the same
// network: the paper's Figure 9 experiment in miniature. Three
// disjoint routes run from 0 to 7, each with capacity 100 per hop:
//
//	route A: 2 hops at 5%/hop    0-1-7
//	route B: 3 hops at 1%/hop    0-2-3-7
//	route C: 4 hops at 0.1%/hop  0-4-5-6-7
func ExampleConfig() {
	pay := func(optimize bool) (fees float64, split string) {
		hops := []struct {
			a, b flash.NodeID
			rate float64
		}{
			{0, 1, 0.05}, {1, 7, 0.05},
			{0, 2, 0.01}, {2, 3, 0.01}, {3, 7, 0.01},
			{0, 4, 0.001}, {4, 5, 0.001}, {5, 6, 0.001}, {6, 7, 0.001},
		}
		g := flash.NewGraph(8)
		for _, h := range hops {
			g.MustAddChannel(h.a, h.b)
		}
		net := flash.NewNetwork(g)
		for _, h := range hops {
			if err := net.SetBalance(h.a, h.b, 100, 100); err != nil {
				log.Fatal(err)
			}
			net.SetFee(h.a, h.b, flash.FeeSchedule{Rate: h.rate})
		}

		cfg := flash.DefaultConfig(0) // every payment is an elephant
		cfg.DisableFeeOpt = !optimize
		tx, err := net.Begin(0, 7, 250) // needs all three routes (100+100+50)
		if err != nil {
			log.Fatal(err)
		}
		if err := flash.NewFlash(cfg).Route(tx); err != nil {
			log.Fatalf("payment failed: %v", err)
		}
		split = fmt.Sprintf("A=%.0f B=%.0f C=%.0f",
			100-net.Balance(0, 1), 100-net.Balance(0, 2), 100-net.Balance(0, 4))
		return tx.FeesPaid(), split
	}

	feesOpt, splitOpt := pay(true)
	feesSeq, splitSeq := pay(false)
	fmt.Printf("with the fee program:    fees %6.2f  split %s\n", feesOpt, splitOpt)
	fmt.Printf("without (sequential):    fees %6.2f  split %s\n", feesSeq, splitSeq)
	fmt.Printf("fee reduction:           %.0f%%\n", 100*(1-feesOpt/feesSeq))
	// Output:
	// with the fee program:    fees   8.40  split A=50 B=100 C=100
	// without (sequential):    fees  13.20  split A=100 B=100 C=50
	// fee reduction:           36%
}

// ExampleThresholdForMiceFraction shows workload-driven thresholding.
func ExampleThresholdForMiceFraction() {
	amounts := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 1000}
	fmt.Println(flash.ThresholdForMiceFraction(amounts, 0.9))
	// Output: 9
}

// TestFacadeNamesHaveCallers keeps the facade pruned: every name that
// flash.go exports must be mentioned as flash.<Name> by doc.go's quick
// start or this file (its tests and Examples), or be a type in the
// signature of a name that is. Anything else is a re-export nobody
// calls; use the internal package directly instead.
func TestFacadeNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "flash.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Every exported top-level name, with the declaration whose
	// signature can keep other names alive (nil for types and values).
	exported := map[string]ast.Node{}
	for _, decl := range facade.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				exported[d.Name.Name] = d.Type
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						exported[s.Name.Name] = nil
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							exported[n.Name] = nil
						}
					}
				}
			}
		}
	}

	mention := regexp.MustCompile(`\bflash\.([A-Z]\w*)`)
	mentioned := map[string]bool{}
	for _, path := range []string{"doc.go", "flash_test.go"} {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mention.FindAllSubmatch(src, -1) {
			mentioned[string(m[1])] = true
		}
	}

	used := map[string]bool{}
	for name, sig := range exported {
		if !mentioned[name] {
			continue
		}
		used[name] = true
		if sig == nil {
			continue
		}
		ast.Inspect(sig, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if _, ok := exported[id.Name]; ok {
					used[id.Name] = true
				}
			}
			return true
		})
	}
	for name := range exported {
		if !used[name] {
			t.Errorf("flash.go exports %s, but neither doc.go nor flash_test.go uses it", name)
		}
	}
}
