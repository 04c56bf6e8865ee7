package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSolveSimpleInequality(t *testing.T) {
	// minimize -x - 2y  s.t.  x + y ≤ 4, x ≤ 2, y ≤ 3, x,y ≥ 0.
	// Optimum at (1, 3): objective -7.
	sol, err := Solve(Problem{
		C:   []float64{-1, -2},
		Aub: [][]float64{{1, 1}, {1, 0}, {0, 1}},
		Bub: []float64{4, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Objective, -7, 1e-7) {
		t.Errorf("objective = %v, want -7 (x=%v)", sol.Objective, sol.X)
	}
}

func TestSolveEquality(t *testing.T) {
	// minimize 3x + 2y  s.t.  x + y = 10, x ≤ 6, x,y ≥ 0. Optimum (0,10)=20.
	sol, err := Solve(Problem{
		C:   []float64{3, 2},
		Aeq: [][]float64{{1, 1}},
		Beq: []float64{10},
		Aub: [][]float64{{1, 0}},
		Bub: []float64{6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Objective, 20, 1e-7) {
		t.Errorf("objective = %v, want 20 (x=%v)", sol.Objective, sol.X)
	}
	if !approx(sol.X[0]+sol.X[1], 10, 1e-7) {
		t.Errorf("equality violated: %v", sol.X)
	}
}

func TestSolveInfeasible(t *testing.T) {
	// x = 5 and x ≤ 3 cannot both hold.
	_, err := Solve(Problem{
		C:   []float64{1},
		Aeq: [][]float64{{1}},
		Beq: []float64{5},
		Aub: [][]float64{{1}},
		Bub: []float64{3},
	})
	if err != ErrInfeasible {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestSolveUnbounded(t *testing.T) {
	// minimize -x with only x ≥ 0: unbounded below.
	_, err := Solve(Problem{
		C:   []float64{-1},
		Aub: [][]float64{{-1}},
		Bub: []float64{0},
	})
	if err != ErrUnbounded {
		t.Errorf("err = %v, want ErrUnbounded", err)
	}
}

func TestSolveUnconstrained(t *testing.T) {
	sol, err := Solve(Problem{C: []float64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if sol.X[0] != 0 || sol.X[1] != 0 {
		t.Errorf("X = %v, want zeros", sol.X)
	}
	if _, err := Solve(Problem{C: []float64{-1}}); err != ErrUnbounded {
		t.Errorf("err = %v, want ErrUnbounded", err)
	}
}

func TestSolveNegativeRHS(t *testing.T) {
	// -x ≤ -2  ⇔  x ≥ 2; minimize x → 2.
	sol, err := Solve(Problem{
		C:   []float64{1},
		Aub: [][]float64{{-1}},
		Bub: []float64{-2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.X[0], 2, 1e-7) {
		t.Errorf("x = %v, want 2", sol.X[0])
	}
}

func TestSolveDegenerate(t *testing.T) {
	// Degenerate vertex: redundant constraints meeting at the optimum.
	sol, err := Solve(Problem{
		C:   []float64{-1, -1},
		Aub: [][]float64{{1, 0}, {1, 0}, {0, 1}, {1, 1}},
		Bub: []float64{1, 1, 1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Objective, -2, 1e-7) {
		t.Errorf("objective = %v, want -2", sol.Objective)
	}
}

func TestSolveRedundantEquality(t *testing.T) {
	// Duplicate equality rows force a leftover basic artificial in an
	// all-zero row, exercising the drive-out path.
	sol, err := Solve(Problem{
		C:   []float64{1, 1},
		Aeq: [][]float64{{1, 1}, {1, 1}, {2, 2}},
		Beq: []float64{4, 4, 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.X[0]+sol.X[1], 4, 1e-7) {
		t.Errorf("x = %v, want sum 4", sol.X)
	}
}

func TestValidateRagged(t *testing.T) {
	bad := []Problem{
		{C: []float64{1}, Aub: [][]float64{{1, 2}}, Bub: []float64{1}},
		{C: []float64{1}, Aub: [][]float64{{1}}, Bub: []float64{1, 2}},
		{C: []float64{1}, Aeq: [][]float64{{1, 2}}, Beq: []float64{1}},
		{C: []float64{1}, Aeq: [][]float64{{1}}, Beq: nil},
	}
	for i, p := range bad {
		if _, err := Solve(p); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// TestSolvePaymentSplit solves a miniature instance of the paper's
// program (1): 3 paths with capacities 30/30/100 and per-unit fee rates
// 0.05/0.01/0.02, demand 60. Cheapest-first fills path2 (30 @0.01) and
// path3 (30 @0.02) for total fee 0.9.
func TestSolvePaymentSplit(t *testing.T) {
	sol, err := Solve(Problem{
		C:   []float64{0.05, 0.01, 0.02},
		Aeq: [][]float64{{1, 1, 1}},
		Beq: []float64{60},
		Aub: [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}},
		Bub: []float64{30, 30, 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Objective, 0.9, 1e-7) {
		t.Errorf("fee = %v, want 0.9 (x=%v)", sol.Objective, sol.X)
	}
	if !approx(sol.X[0], 0, 1e-7) || !approx(sol.X[1], 30, 1e-7) || !approx(sol.X[2], 30, 1e-7) {
		t.Errorf("split = %v, want [0 30 30]", sol.X)
	}
}

// randomSplitProblem builds a random feasible payment-split LP: n paths
// with random capacities and fee rates, demand no larger than the total
// capacity.
func randomSplitProblem(rng *rand.Rand, n int) Problem {
	caps := make([]float64, n)
	rates := make([]float64, n)
	total := 0.0
	aub := make([][]float64, n)
	for i := 0; i < n; i++ {
		caps[i] = 1 + rng.Float64()*99
		rates[i] = 0.001 + rng.Float64()*0.099
		total += caps[i]
		row := make([]float64, n)
		row[i] = 1
		aub[i] = row
	}
	demand := rng.Float64() * total
	return Problem{
		C:   rates,
		Aeq: [][]float64{ones(n)},
		Beq: []float64{demand},
		Aub: aub,
		Bub: caps,
	}
}

func ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// greedySplit is the obvious cheapest-path-first allocation; the LP
// optimum must never cost more.
func greedySplit(p Problem) float64 {
	n := len(p.C)
	demand := p.Beq[0]
	type pathCost struct {
		rate, cap float64
	}
	paths := make([]pathCost, n)
	for i := 0; i < n; i++ {
		paths[i] = pathCost{p.C[i], p.Bub[i]}
	}
	// insertion sort by rate
	for i := 1; i < n; i++ {
		for j := i; j > 0 && paths[j].rate < paths[j-1].rate; j-- {
			paths[j], paths[j-1] = paths[j-1], paths[j]
		}
	}
	fee := 0.0
	for _, pc := range paths {
		amt := math.Min(demand, pc.cap)
		fee += amt * pc.rate
		demand -= amt
		if demand <= 0 {
			break
		}
	}
	return fee
}

// Property: for random feasible payment-split problems, the simplex
// solution (a) satisfies all constraints and (b) matches the greedy
// cheapest-first optimum, which is known to be optimal for this
// separable structure.
func TestSolveSplitOptimalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		p := randomSplitProblem(rng, n)
		sol, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v (problem %+v)", trial, err, p)
		}
		sum := 0.0
		for i, x := range sol.X {
			if x < -1e-7 {
				t.Fatalf("trial %d: negative allocation %v", trial, sol.X)
			}
			if x > p.Bub[i]+1e-6 {
				t.Fatalf("trial %d: capacity violated: x=%v cap=%v", trial, x, p.Bub[i])
			}
			sum += x
		}
		if !approx(sum, p.Beq[0], 1e-5) {
			t.Fatalf("trial %d: demand %v not met: sum=%v", trial, p.Beq[0], sum)
		}
		want := greedySplit(p)
		if sol.Objective > want+1e-5 || sol.Objective < want-1e-5 {
			t.Fatalf("trial %d: objective %v, greedy optimum %v", trial, sol.Objective, want)
		}
	}
}

// Property (testing/quick): solutions to random 2-variable problems are
// always feasible when Solve reports success.
func TestSolveFeasibilityProperty(t *testing.T) {
	f := func(a1, a2, b1, c1, c2 uint8) bool {
		p := Problem{
			C:   []float64{float64(c1), float64(c2)},
			Aub: [][]float64{{float64(a1), float64(a2)}},
			Bub: []float64{float64(b1)},
		}
		sol, err := Solve(p)
		if err != nil {
			return true // infeasible/unbounded is allowed, just not wrong
		}
		lhs := float64(a1)*sol.X[0] + float64(a2)*sol.X[1]
		return lhs <= float64(b1)+1e-6 && sol.X[0] >= -1e-9 && sol.X[1] >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSolveTakesTheOraclePivots: on programs shaped like program (1) —
// distinct, equal and zero path costs, offsets, degenerate capacities —
// Solve takes the dense tableau's pivots and ends on its vertex bit for
// bit. That keeps the router's splits, and every figure built on them,
// as they were.
func TestSolveTakesTheOraclePivots(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s Solver
	for trial := range 3000 {
		p := randomProgram1(rng)
		want, wantErr := oracleSolve(p)
		got, err := s.Solve(p)
		if err != wantErr || got.Pivots != want.Pivots || !slices.Equal(got.X, want.X) {
			t.Fatalf("trial %d: %v after %d pivots (%v), oracle %v after %d (%v)\n%+v",
				trial, got.X, got.Pivots, err, want.X, want.Pivots, wantErr, p)
		}
	}
}

// FuzzSolveDifferential holds Solve to the dense tableau it replaced
// (oracle_test.go) on random general programs and on random programs
// shaped like program (1): the same outcome, the objective within 1e-9
// relative, a point feasible within 1e-9 and, where the costs are
// distinct, the oracle's vertex. A reused Solver must return exactly what
// a fresh one does.
func FuzzSolveDifferential(f *testing.F) {
	for seed := range int64(200) {
		f.Add(seed, seed%2 == 0)
	}
	var reused Solver
	f.Fuzz(func(t *testing.T, seed int64, shaped bool) {
		rng := rand.New(rand.NewSource(seed))
		var p Problem
		if shaped {
			p = randomProgram1(rng)
		} else {
			p = randomProblem(rng)
		}
		want, wantErr := oracleSolve(p)
		got, err := Solve(p)
		if again, againErr := reused.Solve(p); againErr != err || !slices.Equal(again.X, got.X) {
			t.Fatalf("reused Solver: %v (%v), fresh: %v (%v)", again.X, againErr, got.X, err)
		}
		switch {
		case err != wantErr:
			t.Fatalf("Solve: %v, oracle: %v\n%+v", err, wantErr, p)
		case err != nil:
		case !near(got.Objective, want.Objective):
			t.Fatalf("objective %v at %v, oracle %v at %v\n%+v", got.Objective, got.X, want.Objective, want.X, p)
		case violation(p, got.X) > 1e-9:
			t.Fatalf("%v breaks a constraint by %v\n%+v", got.X, violation(p, got.X), p)
		case distinct(p.C) && !slices.EqualFunc(got.X, want.X, near):
			t.Fatalf("vertex %v, oracle %v\n%+v", got.X, want.X, p)
		}
	})
}

// near reports whether a and b agree within 1e-9 relative (to 1 at
// least).
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*max(1, math.Abs(a), math.Abs(b))
}

// distinct reports whether no two costs agree within 1e-9.
func distinct(c []float64) bool {
	for i := range c {
		for j := range i {
			if math.Abs(c[i]-c[j]) <= 1e-9 {
				return false
			}
		}
	}
	return true
}

// violation is the most x breaks a constraint of p by, relative to the
// largest term of the row (and 1).
func violation(p Problem, x []float64) float64 {
	worst := 0.0
	for _, v := range x {
		worst = max(worst, -v)
	}
	check := func(rows [][]float64, b []float64, eq bool) {
		for i, row := range rows {
			lhs, scale := 0.0, max(1, math.Abs(b[i]))
			for j, a := range row {
				lhs += a * x[j]
				scale = max(scale, math.Abs(a*x[j]))
			}
			d := lhs - b[i]
			if eq {
				d = math.Abs(d)
			}
			worst = max(worst, d/scale)
		}
	}
	check(p.Aub, p.Bub, false)
	check(p.Aeq, p.Beq, true)
	return worst
}

// randomProblem draws a small general program: rows over one variable,
// rows without a positive entry and dense rows, small integer
// coefficients, right-hand sides of either sign, up to two equality rows
// and costs of either sign.
func randomProblem(rng *rand.Rand) Problem {
	n := 1 + rng.Intn(6)
	p := Problem{C: make([]float64, n)}
	for j := range p.C {
		p.C[j] = 4*rng.Float64() - 1
	}
	for range rng.Intn(9) {
		row := make([]float64, n)
		switch rng.Intn(3) {
		case 0:
			row[rng.Intn(n)] = float64(1 + rng.Intn(3))
		case 1:
			for j := range row {
				row[j] = -float64(rng.Intn(2))
			}
		default:
			for j := range row {
				row[j] = float64(rng.Intn(7) - 3)
			}
		}
		p.Aub, p.Bub = append(p.Aub, row), append(p.Bub, float64(rng.Intn(25)-5))
	}
	for range rng.Intn(3) {
		row := make([]float64, n)
		for j := range row {
			row[j] = float64(rng.Intn(5) - 1)
		}
		p.Aeq, p.Beq = append(p.Aeq, row), append(p.Beq, float64(rng.Intn(20)-2))
	}
	return p
}

// randomProgram1 draws a program as core's optimizeAllocation poses
// program (1): up to 8 random simple paths from node 0 to node 1 of a
// small random graph; one row per directed hop a path takes and one per
// reverse of it, in order of first use, +1 for each path taking the hop
// and −1 for each taking its reverse (an offset). Capacities carry a
// random flow over the paths plus slack, often none, and the demand is at
// most that flow, so the program is feasible unless a capacity was
// nudged below zero. Path costs are per-channel rates, equal per hop, or
// zero.
func randomProgram1(rng *rand.Rand) Problem {
	nodes := 4 + rng.Intn(6)
	adj := make([][]int, nodes)
	link := func(u, v int) {
		if u != v && !slices.Contains(adj[u], v) {
			adj[u], adj[v] = append(adj[u], v), append(adj[v], u)
		}
	}
	for v := 1; v < nodes; v++ {
		link(v, rng.Intn(v))
	}
	for range 2 * nodes {
		link(rng.Intn(nodes), rng.Intn(nodes))
	}
	var paths [][]int
	for range 20 {
		p := randomPath(rng, adj, 0, 1)
		if len(paths) < 8 && !slices.ContainsFunc(paths, func(q []int) bool { return slices.Equal(p, q) }) {
			paths = append(paths, p)
		}
	}
	k, costs := len(paths), rng.Intn(4) // costs 0: zero, 1: equal per hop, else rates
	p := Problem{C: make([]float64, k), Aeq: [][]float64{ones(k)}}
	rowOf, rate := map[[2]int]int{}, map[[2]int]float64{}
	entry := func(u, v, path int, a float64) {
		r, ok := rowOf[[2]int{u, v}]
		if !ok {
			r = len(p.Aub)
			rowOf[[2]int{u, v}] = r
			p.Aub = append(p.Aub, make([]float64, k))
		}
		p.Aub[r][path] += a
	}
	flow, total := make([]float64, k), 0.0
	for i, path := range paths {
		if rng.Intn(4) > 0 {
			flow[i] = 10 * rng.Float64()
		}
		total += flow[i]
		for h := 0; h+1 < len(path); h++ {
			u, v := path[h], path[h+1]
			entry(u, v, i, 1)
			entry(v, u, i, -1)
			if costs == 1 {
				p.C[i] += 0.01
			} else if ch := [2]int{min(u, v), max(u, v)}; costs > 1 {
				if _, ok := rate[ch]; !ok {
					rate[ch] = 0.001 + 0.099*rng.Float64()
				}
				p.C[i] += rate[ch]
			}
		}
	}
	for _, row := range p.Aub {
		net, slack := 0.0, 0.0
		for i, a := range row {
			net += a * flow[i]
		}
		if rng.Intn(3) > 0 {
			slack = 5 * rng.Float64()
		}
		p.Bub = append(p.Bub, max(net, 0)+slack)
	}
	if rng.Intn(8) == 0 {
		p.Bub[rng.Intn(len(p.Bub))] = -1e-3 * (1 + rng.Float64())
	}
	p.Beq = []float64{total * rng.Float64()}
	return p
}

// randomPath is a simple path from s to t found by a depth-first search
// that tries neighbours in random order.
func randomPath(rng *rand.Rand, adj [][]int, s, t int) []int {
	on := make([]bool, len(adj))
	var path []int
	var walk func(u int) bool
	walk = func(u int) bool {
		path, on[u] = append(path, u), true
		if u == t {
			return true
		}
		for _, i := range rng.Perm(len(adj[u])) {
			if v := adj[u][i]; !on[v] && walk(v) {
				return true
			}
		}
		path, on[u] = path[:len(path)-1], false
		return false
	}
	walk(s)
	return path
}

// program1Problem is a program (1) of seed 1's average ripple-mixed
// shape: 10 paths and 49 rows — two rows over each path alone, 24 rows of
// −1 entries only (reverse slots of channels the paths cross) and 5
// channels two paths share, two of them crossed in reverse by a third.
func program1Problem() Problem {
	rng := rand.New(rand.NewSource(1))
	const paths = 10
	p := Problem{C: make([]float64, paths), Aeq: [][]float64{ones(paths)}, Beq: []float64{200}}
	row := func(b float64) []float64 {
		r := make([]float64, paths)
		p.Aub, p.Bub = append(p.Aub, r), append(p.Bub, b)
		return r
	}
	for i := range paths {
		p.C[i] = 0.01 + 0.05*rng.Float64()
		row(20 + 80*rng.Float64())[i] = 1
		row(20 + 80*rng.Float64())[i] = 1
	}
	for k := range 24 {
		r := row(20 + 80*rng.Float64())
		r[k%paths] = -1
		if k%3 == 0 {
			r[(k+1)%paths] = -1
		}
	}
	for k := range 5 {
		r := row(30 + 60*rng.Float64())
		r[2*k], r[2*k+1] = 1, 1
		if k < 2 {
			r[2*k+5] = -1
		}
	}
	return p
}

// BenchmarkSolveElephantSizedLP solves the programs elephants pose with a
// reused Solver and with the dense tableau Solve ran before
// (oracle_test.go): program1, seed 1's average program (1), and
// separable, 20 paths with a capacity row each and no shared row. rows/op
// is the tableau's height at the end.
func BenchmarkSolveElephantSizedLP(b *testing.B) {
	for _, c := range []struct {
		name string
		p    Problem
	}{
		{"program1", program1Problem()},
		{"separable", randomSplitProblem(rand.New(rand.NewSource(11)), 20)},
	} {
		b.Run(c.name+"/solver", func(b *testing.B) {
			var s Solver
			b.ReportAllocs()
			for b.Loop() {
				if _, err := s.Solve(c.p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(s.m), "rows/op")
		})
		b.Run(c.name+"/oracle", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := oracleSolve(c.p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(c.p.Aub)+len(c.p.Aeq)), "rows/op")
		})
	}
}
