package lp

import "math"

// This file keeps the dense two-phase tableau Solve ran before it
// presolved: every inequality row a row, an artificial variable for each
// equality row and each negative right-hand side, Bland's rule over every
// column. It is the reference the differential tests hold Solve to.

// oracleTableau is a dense simplex tableau: m constraint rows over cols
// columns, the last column being the right-hand side. basis[i] records
// which variable is basic in row i.
type oracleTableau struct {
	rows  [][]float64
	basis []int
	nOrig int // original variables
	nSlk  int // slack variables
	nArt  int // artificial variables
}

func (t *oracleTableau) cols() int { return t.nOrig + t.nSlk + t.nArt + 1 }
func (t *oracleTableau) rhs() int  { return t.cols() - 1 }

// oracleSolve optimises p on the dense tableau. Same contract as Solve.
func oracleSolve(p Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	n := len(p.C)
	mub, meq := len(p.Aub), len(p.Beq)
	m := mub + meq

	if m == 0 {
		// No constraints: optimum is x = 0 unless some cost is negative,
		// in which case the problem is unbounded.
		for _, c := range p.C {
			if c < -eps {
				return Solution{}, ErrUnbounded
			}
		}
		return Solution{X: make([]float64, n)}, nil
	}

	t := &oracleTableau{nOrig: n, nSlk: mub}

	// Artificial variables are needed for equality rows and for
	// inequality rows whose right-hand side is negative (their slack
	// enters with coefficient −1 after sign normalisation).
	type rowSpec struct {
		coef    []float64
		b       float64
		slack   int // slack column index or -1
		slackCo float64
	}
	specs := make([]rowSpec, 0, m)
	for i := 0; i < mub; i++ {
		coef := append([]float64(nil), p.Aub[i]...)
		b := p.Bub[i]
		slackCo := 1.0
		if b < 0 {
			for j := range coef {
				coef[j] = -coef[j]
			}
			b = -b
			slackCo = -1
		}
		specs = append(specs, rowSpec{coef: coef, b: b, slack: n + i, slackCo: slackCo})
	}
	for i := 0; i < meq; i++ {
		coef := append([]float64(nil), p.Aeq[i]...)
		b := p.Beq[i]
		if b < 0 {
			for j := range coef {
				coef[j] = -coef[j]
			}
			b = -b
		}
		specs = append(specs, rowSpec{coef: coef, b: b, slack: -1})
	}

	// Assign artificial columns.
	artOf := make([]int, m) // artificial column for row i, or -1
	nArt := 0
	for i, s := range specs {
		if s.slack >= 0 && s.slackCo > 0 {
			artOf[i] = -1 // slack can start basic
		} else {
			artOf[i] = n + mub + nArt
			nArt++
		}
	}
	t.nArt = nArt

	t.rows = make([][]float64, m)
	t.basis = make([]int, m)
	for i, s := range specs {
		row := make([]float64, t.cols())
		copy(row, s.coef)
		if s.slack >= 0 {
			row[s.slack] = s.slackCo
		}
		if artOf[i] >= 0 {
			row[artOf[i]] = 1
			t.basis[i] = artOf[i]
		} else {
			t.basis[i] = s.slack
		}
		row[t.rhs()] = s.b
		t.rows[i] = row
	}

	pivots := 0

	// Phase 1: minimise the sum of artificial variables.
	if nArt > 0 {
		phase1 := make([]float64, t.cols()-1)
		for j := n + mub; j < n+mub+nArt; j++ {
			phase1[j] = 1
		}
		obj, p1, err := t.optimize(phase1, false)
		pivots += p1
		if err != nil {
			return Solution{}, err
		}
		if obj > 1e-6 {
			return Solution{}, ErrInfeasible
		}
		// Drive any remaining basic artificials out of the basis so they
		// cannot re-enter with a positive value in phase 2.
		for i := range t.basis {
			if t.basis[i] < n+mub {
				continue
			}
			pivoted := false
			for j := 0; j < n+mub; j++ {
				if math.Abs(t.rows[i][j]) > eps {
					t.pivot(i, j)
					pivots++
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant all-zero row; neutralise it.
				for j := range t.rows[i] {
					t.rows[i][j] = 0
				}
			}
		}
	}

	// Phase 2: optimise the true objective, artificials barred.
	cost := make([]float64, t.cols()-1)
	copy(cost, p.C)
	_, p2, err := t.optimize(cost, true)
	pivots += p2
	if err != nil {
		return Solution{}, err
	}

	x := make([]float64, n)
	for i, b := range t.basis {
		if b < n {
			x[b] = t.rows[i][t.rhs()]
		}
	}
	obj := 0.0
	for j, c := range p.C {
		obj += c * x[j]
	}
	return Solution{X: x, Objective: obj, Pivots: pivots}, nil
}

// optimize runs simplex pivots until the reduced costs admit no
// improving column, minimising cost over the current tableau. When
// barArtificials is set, artificial columns may not enter the basis.
// It returns the achieved objective value. The reduced-cost row
// z_j − c_j is computed once and then eliminated like the constraint
// rows.
func (t *oracleTableau) optimize(cost []float64, barArtificials bool) (float64, int, error) {
	limit := t.nOrig + t.nSlk
	if !barArtificials {
		limit += t.nArt
	}
	// Initial reduced costs for the current basis.
	obj := make([]float64, t.cols()) // obj[rhs] tracks Σ cB_i·b_i
	for j := 0; j < t.cols(); j++ {
		zj := 0.0
		for i, b := range t.basis {
			if b < len(cost) && cost[b] != 0 {
				zj += cost[b] * t.rows[i][j]
			}
		}
		obj[j] = zj
	}
	for j := 0; j < limit; j++ {
		if j < len(cost) {
			obj[j] -= cost[j]
		}
	}

	pivots := 0
	for iter := 0; iter < maxIters; iter++ {
		// Entering column = smallest j with positive reduced cost (Bland).
		enter := -1
		for j := 0; j < limit; j++ {
			if obj[j] > eps {
				enter = j
				break
			}
		}
		if enter < 0 {
			return obj[t.rhs()], pivots, nil
		}
		// Ratio test with Bland tie-breaking on basis index.
		leave := -1
		best := math.Inf(1)
		for i := range t.rows {
			a := t.rows[i][enter]
			if a > eps {
				ratio := t.rows[i][t.rhs()] / a
				if ratio < best-eps || (ratio < best+eps && (leave < 0 || t.basis[i] < t.basis[leave])) {
					best = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return 0, pivots, ErrUnbounded
		}
		t.pivot(leave, enter)
		// Eliminate the entering column from the reduced-cost row.
		if factor := obj[enter]; factor != 0 {
			pr := t.rows[leave]
			for j := range obj {
				obj[j] -= factor * pr[j]
			}
			obj[enter] = 0
		}
		pivots++
	}
	return 0, pivots, ErrIterations
}

// pivot makes column enter basic in row leave via Gaussian elimination.
func (t *oracleTableau) pivot(leave, enter int) {
	pr := t.rows[leave]
	pivVal := pr[enter]
	for j := range pr {
		pr[j] /= pivVal
	}
	for i, row := range t.rows {
		if i == leave {
			continue
		}
		factor := row[enter]
		if factor == 0 {
			continue
		}
		for j := range row {
			row[j] -= factor * pr[j]
		}
		row[enter] = 0 // kill residual rounding error
	}
	t.basis[leave] = enter
}
