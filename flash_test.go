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
	"path/filepath"
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

// ExampleNewFlash demonstrates the quickstart flow.
func ExampleNewFlash() {
	g := flash.NewGraph(3)
	g.MustAddChannel(0, 1)
	g.MustAddChannel(1, 2)
	net := flash.NewNetwork(g)
	net.SetBalance(0, 1, 100, 100)
	net.SetBalance(1, 2, 100, 100)

	router := flash.NewFlash(flash.DefaultConfig(50))
	tx, err := net.Begin(0, 2, 80)
	if err != nil {
		log.Fatal(err)
	}
	if err := router.Route(tx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("delivered 80 over %d path(s)\n", tx.PathsUsed())
	// Output: delivered 80 over 1 path(s)
}

// ExampleThresholdForMiceFraction shows workload-driven thresholding.
func ExampleThresholdForMiceFraction() {
	amounts := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 1000}
	fmt.Println(flash.ThresholdForMiceFraction(amounts, 0.9))
	// Output: 9
}

// TestFacadeNamesHaveCallers keeps the facade pruned: every name that
// flash.go exports must be mentioned as flash.<Name> by an example
// program, doc.go's quick start or this file, or be a type in the
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

	callers := []string{"doc.go", "flash_test.go"}
	examples, err := filepath.Glob(filepath.Join("examples", "*", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	callers = append(callers, examples...)
	mention := regexp.MustCompile(`\bflash\.([A-Z]\w*)`)
	mentioned := map[string]bool{}
	for _, path := range callers {
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
			t.Errorf("flash.go exports %s, but no example, doc.go or flash_test.go uses it", name)
		}
	}
}
