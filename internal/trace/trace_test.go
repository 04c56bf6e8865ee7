package trace

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
	"repro/internal/topo"
)

func TestSizeModelRippleCalibration(t *testing.T) {
	rng := stats.NewRNG(1, 1)
	sample := make([]float64, 100000)
	for i := range sample {
		sample[i] = RippleSizes.Sample(rng)
	}
	c := stats.NewCDF(sample)
	// Paper: median $4.8, top-10% carry ≈94.5% of volume, elephants
	// begin around $1,740.
	if med := c.Quantile(0.5); med < 3.5 || med > 6.5 {
		t.Errorf("median = %v, want ≈4.8", med)
	}
	if share := c.TopShare(0.10); share < 0.90 || share > 0.99 {
		t.Errorf("top-10%% volume share = %v, want ≈0.945", share)
	}
	if p90 := c.Quantile(0.9); p90 < 400 || p90 > 3000 {
		t.Errorf("p90 = %v, want near the 1740 elephant boundary", p90)
	}
}

func TestSizeModelBitcoinCalibration(t *testing.T) {
	rng := stats.NewRNG(2, 1)
	sample := make([]float64, 100000)
	for i := range sample {
		sample[i] = BitcoinSizes.Sample(rng)
	}
	c := stats.NewCDF(sample)
	if med := c.Quantile(0.5); med < 0.9e6 || med > 1.8e6 {
		t.Errorf("median = %v, want ≈1.293e6", med)
	}
	if share := c.TopShare(0.10); share < 0.90 || share > 0.99 {
		t.Errorf("top-10%% volume share = %v, want ≈0.947", share)
	}
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(Config{Nodes: 1}); err == nil {
		t.Error("1 node accepted")
	}
	cfg := DefaultConfig(10)
	cfg.RecurrenceProb = 1.5
	if _, err := NewGenerator(cfg); err == nil {
		t.Error("bad recurrence prob accepted")
	}
	cfg = DefaultConfig(10)
	cfg.Graph = topo.Ring(5) // fewer graph nodes than config nodes
	if _, err := NewGenerator(cfg); err == nil {
		t.Error("undersized graph accepted")
	}
}

// TestGeneratorRejectsChannelLessGraph: on a graph where none of the
// first Nodes nodes has a channel, every sender draw would be rejected
// and Next would never return, so NewGenerator refuses the graph. A
// channel among nodes past Nodes does not help; one inside does.
func TestGeneratorRejectsChannelLessGraph(t *testing.T) {
	cfg := DefaultConfig(5)
	cfg.Graph = topo.New(5)
	if _, err := NewGenerator(cfg); err == nil {
		t.Error("a graph without channels accepted")
	}
	g := topo.New(8)
	g.MustAddChannel(6, 7)
	cfg.Graph = g
	if _, err := NewGenerator(cfg); err == nil {
		t.Error("a graph whose only channel lies past Nodes accepted")
	}
	g = topo.New(8)
	g.MustAddChannel(4, 7)
	cfg.Graph = g
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatalf("a graph with a channel at node 4 refused: %v", err)
	}
	if p := gen.Next(); p.Sender != 4 {
		t.Errorf("sender %d has no channel", p.Sender)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a, err := NewGenerator(DefaultConfig(50))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewGenerator(DefaultConfig(50))
	pa := a.Generate(100)
	pb := b.Generate(100)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("payment %d differs: %+v vs %+v", i, pa[i], pb[i])
		}
	}
}

// TestGenerateNonPositiveCount: Generate(n ≤ 0) returns nil and draws
// nothing — it used to panic in make for n < 0 — so the next payment is
// the same as a fresh generator's first.
func TestGenerateNonPositiveCount(t *testing.T) {
	g, err := NewGenerator(DefaultConfig(50))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, -1, -5} {
		if ps := g.Generate(n); ps != nil {
			t.Fatalf("Generate(%d) = %d payments, want nil", n, len(ps))
		}
	}
	fresh, _ := NewGenerator(DefaultConfig(50))
	if got, want := g.Next(), fresh.Next(); got != want {
		t.Fatalf("after Generate(≤0) the next payment is %+v, want %+v", got, want)
	}
}

func TestGeneratorBasicShape(t *testing.T) {
	g, err := NewGenerator(DefaultConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	ps := g.Generate(5000)
	for i, p := range ps {
		if p.ID != i {
			t.Fatalf("payment %d has ID %d", i, p.ID)
		}
		if p.Sender == p.Receiver {
			t.Fatalf("self-payment at %d", i)
		}
		if p.Amount <= 0 {
			t.Fatalf("non-positive amount at %d", i)
		}
		if p.Time < 0 {
			t.Fatalf("negative time at %d", i)
		}
	}
	// Timestamps advance and cover multiple days at 2000/day.
	if ps[len(ps)-1].Day() != 2 {
		t.Errorf("last payment day = %d, want 2", ps[len(ps)-1].Day())
	}
}

func TestGeneratorRespectsComponents(t *testing.T) {
	// Two disconnected cliques: payments must stay within one.
	g := topo.New(10)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			g.MustAddChannel(topo.NodeID(i), topo.NodeID(j))
			g.MustAddChannel(topo.NodeID(i+5), topo.NodeID(j+5))
		}
	}
	cfg := DefaultConfig(10)
	cfg.Graph = g
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range gen.Generate(2000) {
		if (p.Sender < 5) != (p.Receiver < 5) {
			t.Fatalf("cross-component payment %d→%d", p.Sender, p.Receiver)
		}
	}
}

// TestRecurrenceCalibration checks Figure 4's workload, the one fig4
// and tracegen -recurrence both draw, against the paper's statistics.
func TestRecurrenceCalibration(t *testing.T) {
	g, err := NewGenerator(RecurrenceConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	ps := g.Generate(20000) // 10 days at 2000/day
	fracs := RecurringPerDay(ps)
	if len(fracs) != 10 {
		t.Fatalf("got %d days, want 10", len(fracs))
	}
	med := stats.Median(fracs)
	// Paper Figure 4a: median ≈86%.
	if med < 0.75 || med > 0.97 {
		t.Errorf("median recurring fraction = %v, want ≈0.86", med)
	}
	// Paper Figure 4b: top-5 receivers cover >70% of recurring txns.
	shares := Top5RecurringShare(ps)
	if s := stats.Median(shares); s < 0.6 {
		t.Errorf("median top-5 share = %v, want ≥0.7 region", s)
	}
}

func TestAnalyzeSizes(t *testing.T) {
	ps := []Payment{
		{Amount: 1}, {Amount: 2}, {Amount: 3}, {Amount: 4},
		{Amount: 5}, {Amount: 6}, {Amount: 7}, {Amount: 8},
		{Amount: 9}, {Amount: 910},
	}
	st := AnalyzeSizes(ps)
	if st.TotalVolume != 955 {
		t.Errorf("total = %v", st.TotalVolume)
	}
	if math.Abs(st.Top10Share-910.0/955) > 1e-9 {
		t.Errorf("top10 share = %v", st.Top10Share)
	}
}

func TestRecurringPerDayEdgeCases(t *testing.T) {
	if got := RecurringPerDay(nil); got != nil {
		t.Errorf("empty trace → %v", got)
	}
	// Single unique pair per day → zero recurring.
	ps := []Payment{
		{Sender: 0, Receiver: 1, Time: 0.1},
		{Sender: 1, Receiver: 2, Time: 0.2},
	}
	fracs := RecurringPerDay(ps)
	if len(fracs) != 1 || fracs[0] != 0 {
		t.Errorf("fracs = %v, want [0]", fracs)
	}
	// Same pair twice → both recurring.
	ps = append(ps, Payment{Sender: 0, Receiver: 1, Time: 0.3})
	fracs = RecurringPerDay(ps)
	if math.Abs(fracs[0]-2.0/3) > 1e-9 {
		t.Errorf("fracs = %v, want [0.667]", fracs)
	}
}

func TestTopKRecurringShare(t *testing.T) {
	// Sender 0: 4 recurring to receiver 1, 2 recurring to receiver 2,
	// 2 recurring to receiver 3. Top-1 share = 4/8.
	var ps []Payment
	add := func(r topo.NodeID, n int) {
		for i := 0; i < n; i++ {
			ps = append(ps, Payment{Sender: 0, Receiver: r, Time: 0.01})
		}
	}
	add(1, 4)
	add(2, 2)
	add(3, 2)
	shares := TopKRecurringShare(ps, 1)
	if len(shares) != 1 || math.Abs(shares[0]-0.5) > 1e-9 {
		t.Errorf("top-1 shares = %v, want [0.5]", shares)
	}
	shares = TopKRecurringShare(ps, 5)
	if math.Abs(shares[0]-1.0) > 1e-9 {
		t.Errorf("top-5 shares = %v, want [1]", shares)
	}
}

func TestAmountsHelper(t *testing.T) {
	ps := []Payment{{Amount: 3}, {Amount: 7}}
	a := Amounts(ps)
	if len(a) != 2 || a[0] != 3 || a[1] != 7 {
		t.Errorf("Amounts = %v", a)
	}
}

func TestSendersAreSkewed(t *testing.T) {
	g, err := NewGenerator(DefaultConfig(200))
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[topo.NodeID]int)
	for _, p := range g.Generate(10000) {
		counts[p.Sender]++
	}
	// Zipf sender activity: the busiest sender should far exceed average.
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	if maxCount < 3*(10000/200) {
		t.Errorf("max sender count %d not skewed vs mean %d", maxCount, 10000/200)
	}
}

func TestPickReceiverFallback(t *testing.T) {
	// Graph where node 0's component has exactly 2 nodes: the only
	// possible receiver is node 1 every time.
	g := topo.New(4)
	g.MustAddChannel(0, 1)
	g.MustAddChannel(2, 3)
	cfg := DefaultConfig(4)
	cfg.Graph = g
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	_ = rng
	for i := 0; i < 500; i++ {
		p := gen.Next()
		if p.Sender == p.Receiver {
			t.Fatal("self payment")
		}
		if (p.Sender <= 1) != (p.Receiver <= 1) {
			t.Fatalf("cross-component payment %d→%d", p.Sender, p.Receiver)
		}
	}
}

// TestTopKRecurringShareDeterministic pins the fix for a real
// map-iteration nondeterminism (found by flashvet determinism/
// floataccum): per-sender top-k shares were summed in map-iteration
// order, and float addition rounds differently under different orders,
// so identical inputs produced results differing in the low bits from
// run to run. The shares are deliberately non-representable fractions
// (1/3, 1/7, …) so any reordering of the sum changes the bits.
func TestTopKRecurringShareDeterministic(t *testing.T) {
	var ps []Payment
	// 12 senders, sender s having (2p_s) recurring payments split over
	// p_s receivers with 2 each → top-1 share 1/p_s for prime p_s.
	primes := []int{3, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43}
	for s, p := range primes {
		for r := 0; r < p; r++ {
			for i := 0; i < 2; i++ {
				ps = append(ps, Payment{
					Sender:   topo.NodeID(s),
					Receiver: topo.NodeID(1000 + r),
					Time:     0.5,
				})
			}
		}
	}
	first := TopKRecurringShare(ps, 1)
	if len(first) != 1 {
		t.Fatalf("want one day, got %v", first)
	}
	for i := 0; i < 100; i++ {
		got := TopKRecurringShare(ps, 1)
		if got[0] != first[0] {
			t.Fatalf("run %d: share %x differs from first run %x — summation order leaked into the result", i, got[0], first[0])
		}
	}
}
