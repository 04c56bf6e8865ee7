// Package lp solves the small linear programs of the Flash paper's
// program (1): split an elephant payment across the k probed paths so
// that total (linear) fees are minimised, subject to meeting the demand
// and respecting every probed channel's capacity.
//
// Most rows of such a program tie no two paths together. A row over one
// variable bounds it, and a row with no positive coefficient (a channel
// the paths cross only in reverse) holds for every x ≥ 0. Solve
// presolves both kinds away and runs a bounded-variable primal simplex on
// the rest — on program (1), the channels several paths share and the
// demand row — bringing a bound back as a row only when a pivot would
// fill it in. Bland's rule orders the columns as the unpresolved
// problem's dense tableau does, so Solve takes that tableau's pivots,
// with its arithmetic, and ends on its vertex.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Problem is a linear program in the form
//
//	minimize   C·x
//	subject to Aub·x ≤ Bub
//	           Aeq·x = Beq
//	           x ≥ 0
//
// Aub and Aeq may independently be empty. Every row of Aub/Aeq must have
// exactly len(C) entries.
type Problem struct {
	C   []float64   // objective coefficients, one per variable
	Aub [][]float64 // inequality constraint matrix (≤)
	Bub []float64   // inequality right-hand sides
	Aeq [][]float64 // equality constraint matrix
	Beq []float64   // equality right-hand sides
}

// Solution is an optimal feasible point of a Problem.
type Solution struct {
	X         []float64 // optimal variable values, len == len(Problem.C)
	Objective float64   // C·X
	Pivots    int       // simplex pivots performed, bound flips included (diagnostic)
}

// Errors returned by Solve.
var (
	ErrInfeasible = errors.New("lp: problem is infeasible")
	ErrUnbounded  = errors.New("lp: problem is unbounded")
	ErrIterations = errors.New("lp: iteration limit exceeded")
)

const (
	eps      = 1e-9
	maxIters = 50000
)

// Validate checks the problem dimensions, returning a descriptive error
// for ragged matrices or mismatched right-hand sides.
func (p *Problem) Validate() error {
	n := len(p.C)
	if len(p.Aub) != len(p.Bub) {
		return fmt.Errorf("lp: %d inequality rows but %d right-hand sides", len(p.Aub), len(p.Bub))
	}
	if len(p.Aeq) != len(p.Beq) {
		return fmt.Errorf("lp: %d equality rows but %d right-hand sides", len(p.Aeq), len(p.Beq))
	}
	for i, row := range p.Aub {
		if len(row) != n {
			return fmt.Errorf("lp: inequality row %d has %d entries, want %d", i, len(row), n)
		}
	}
	for i, row := range p.Aeq {
		if len(row) != n {
			return fmt.Errorf("lp: equality row %d has %d entries, want %d", i, len(row), n)
		}
	}
	return nil
}

// Solve optimises p with a fresh Solver. It returns ErrInfeasible when
// the constraints admit no x ≥ 0, and ErrUnbounded when the objective can
// be driven to −∞. The benchmark's per-layer ladder times this call as
// lp.solve_ns (benchmark/harness/ladder.go).
func Solve(p Problem) (Solution, error) {
	var s Solver
	return s.Solve(p)
}

// Solver solves Problems in buffers it keeps from call to call, so a warm
// Solver allocates nothing. The zero value is ready to use. A Solver is
// not safe for concurrent use.
type Solver struct {
	n, mub int       // variables and inequality rows
	kept   []int     // inequality rows presolve kept as rows
	upper  []float64 // per variable: its bound; +Inf for none, or once its row is back
	bound  []int     // per variable: the inequality row its bound came from
	// The tableau: m rows of w entries, the last the right-hand side. Its
	// columns are the variables, a slack per kept row, a slack per
	// variable's bound row, then from art on the artificials; basis[i] is
	// the column basic in row i. A flipped column holds upper − x in place
	// of x, so every nonbasic column stands at zero.
	tab       []float64
	m, w, art int
	basis     []int
	flipped   []bool
	obj, x    []float64 // reduced costs z − c, obj[w−1] the phase's objective; the solution
}

// Solve optimises p like the package-level Solve, in s's buffers. The
// returned X is one of them: the next call overwrites it.
func (s *Solver) Solve(p Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	s.load(p)
	pivots := 0
	if s.art < s.w-1 { // a row starts on an artificial: phase 1
		k, err := s.optimize(p.C, true)
		if pivots += k; err != nil {
			return Solution{}, err
		}
		if s.obj[s.w-1] > 1e-6 {
			return Solution{}, ErrInfeasible
		}
		pivots += s.driveOut()
	}
	k, err := s.optimize(p.C, false)
	if pivots += k; err != nil {
		return Solution{}, err
	}
	s.x = append(s.x[:0], make([]float64, s.n)...)
	for i, b := range s.basis[:s.m] {
		if b < s.n {
			s.x[b] = s.tab[i*s.w+s.w-1]
		}
	}
	obj := 0.0
	for j, c := range p.C {
		if s.flipped[j] {
			s.x[j] = s.upper[j]
		}
		obj += c * s.x[j]
	}
	return Solution{X: s.x, Objective: obj, Pivots: pivots}, nil
}

// load presolves p into the tableau. An inequality row with b ≥ 0 and no
// positive coefficient holds for every x ≥ 0: dropped. One with b ≥ 0 and
// a single nonzero coefficient a > 0, on x_j, bounds x_j by b/a; the
// tightest such row, the first of equals, sets the bound. The other
// inequality rows and the equality rows make the tableau, laid out as the
// unpresolved one: a row with b < 0 negated, and it and every equality
// row starting on an artificial, the rest on their slacks.
func (s *Solver) load(p Problem) {
	n := len(p.C)
	s.n, s.mub, s.kept = n, len(p.Aub), s.kept[:0]
	s.bound, s.upper = append(s.bound[:0], make([]int, n)...), s.upper[:0]
	for range n {
		s.upper = append(s.upper, math.Inf(1))
	}
	arts := len(p.Aeq)
	for i, row := range p.Aub {
		nonzero, positive, at := 0, 0, 0
		for j, a := range row {
			if a != 0 {
				nonzero++
			}
			if a > 0 {
				positive, at = positive+1, j
			}
		}
		switch b := p.Bub[i]; {
		case b >= 0 && positive == 0:
		case b >= 0 && nonzero == 1:
			if u := b / row[at]; u < s.upper[at] {
				s.upper[at], s.bound[at] = u, i
			}
		default:
			s.kept = append(s.kept, i)
			if b < 0 {
				arts++
			}
		}
	}
	k := len(s.kept)
	s.m, s.art = k+len(p.Aeq), 2*n+k
	s.w = s.art + arts + 1
	rows := s.m + n // and room for every bound row to come back
	s.tab = append(s.tab[:0], make([]float64, rows*s.w)...)
	s.basis = append(s.basis[:0], make([]int, rows)...)
	s.flipped = append(s.flipped[:0], make([]bool, n)...)
	s.obj = append(s.obj[:0], make([]float64, s.w)...)
	next := s.art
	for r := range s.m {
		row := s.tab[r*s.w : (r+1)*s.w]
		var b, slack float64
		if r < k {
			copy(row, p.Aub[s.kept[r]])
			b, slack = p.Bub[s.kept[r]], 1
		} else {
			copy(row, p.Aeq[r-k])
			b = p.Beq[r-k]
		}
		if b < 0 {
			for j := range n {
				row[j] = -row[j]
			}
			b, slack = -b, -slack
		}
		if r < k {
			row[n+r] = slack
		}
		s.basis[r] = n + r
		if slack <= 0 {
			row[next], s.basis[r] = 1, next
			next++
		}
		row[s.w-1] = b
	}
}

// optimize runs the simplex from the current basis until no column
// improves: phase 1 on the artificials' sum, phase 2 on c·x with the
// artificials barred. The entering column is the improving one first in
// Bland's order. It rises until a basic variable falls to zero, or until
// it reaches its own bound and flips; ties go to the variable first in
// that order, as in the unpresolved tableau's ratio test. It returns the
// pivots and flips made.
func (s *Solver) optimize(c []float64, phase1 bool) (int, error) {
	w, rhs, limit := s.w, s.w-1, s.art
	if phase1 {
		limit = rhs
	}
	for j := range w {
		z := 0.0
		for i, b := range s.basis[:s.m] {
			if cb := s.cost(c, phase1, b); cb != 0 {
				z += cb * s.tab[i*w+j]
			}
		}
		s.obj[j] = z
	}
	for j := range limit {
		s.obj[j] -= s.cost(c, phase1, j)
	}
	beats := func(t float64, k int, best float64, bk int) bool {
		return t < best-eps || (t < best+eps && k < bk)
	}
	for iter := range maxIters {
		enter, ek := -1, 0
		for j := range limit {
			if k := s.key(j, false); s.obj[j] > eps && (enter < 0 || k < ek) {
				enter, ek = j, k
			}
		}
		if enter < 0 {
			return iter, nil
		}
		leave, best, bk := -1, math.Inf(1), 0
		for i, b := range s.basis[:s.m] {
			if a := s.tab[i*w+enter]; a > eps {
				if t, k := s.tab[i*w+rhs]/a, s.key(b, false); beats(t, k, best, bk) {
					leave, best, bk = i, t, k
				}
			}
		}
		switch {
		case enter < s.n && beats(s.upper[enter], s.key(enter, true), best, bk):
			s.flip(enter)
		case leave < 0:
			return iter, ErrUnbounded
		default:
			s.pivot(leave, enter)
		}
	}
	return maxIters, ErrIterations
}

// cost is column j's cost in the phase, for the column as it stands.
func (s *Solver) cost(c []float64, phase1 bool, j int) float64 {
	switch {
	case phase1 && j >= s.art:
		return 1
	case phase1 || j >= s.n:
		return 0
	case s.flipped[j]:
		return -c[j]
	}
	return c[j]
}

// key is column j's index in the unpresolved tableau, the order Bland's
// rule follows there: variables, a slack per inequality row, artificials.
// A flipped variable stands for the slack of its bound row (it is basic
// in that row); far asks for j's key flipped the other way.
func (s *Solver) key(j int, far bool) int {
	k := len(s.kept)
	switch {
	case j >= s.art:
		return s.n + s.mub + j - s.art
	case j >= s.n+k:
		return s.n + s.bound[j-s.n-k]
	case j >= s.n:
		return s.n + s.kept[j-s.n]
	case s.flipped[j] != far:
		return s.n + s.bound[j]
	}
	return j
}

// driveOut pivots every artificial still basic after phase 1, at zero,
// out of its row on the row's nonzero first in Bland's order, so none can
// rise in phase 2; a row with none is all zero and is cleared. It returns
// the pivots made.
func (s *Solver) driveOut() int {
	pivots := 0
	for i := range s.m {
		if s.basis[i] < s.art {
			continue
		}
		row, enter, ek := s.tab[i*s.w:(i+1)*s.w], -1, 0
		for j := range s.art {
			if k := s.key(j, false); math.Abs(row[j]) > eps && (enter < 0 || k < ek) {
				enter, ek = j, k
			}
		}
		if enter < 0 {
			clear(row)
			continue
		}
		s.pivot(i, enter)
		pivots++
	}
	return pivots
}

// pivot makes column enter basic in row leave by Gaussian elimination,
// the reduced costs included. A bounded variable first gets its bound
// row back (restore), since the unpresolved tableau's pivot fills it in.
func (s *Solver) pivot(leave, enter int) {
	if enter < s.n && !math.IsInf(s.upper[enter], 1) {
		enter = s.restore(enter)
	}
	w := s.w
	pr := s.tab[leave*w : (leave+1)*w]
	d := pr[enter]
	for j := range pr {
		pr[j] /= d
	}
	for i := range s.m {
		row := s.tab[i*w : (i+1)*w]
		if f := row[enter]; i != leave && f != 0 {
			for j := range row {
				row[j] -= f * pr[j]
			}
			row[enter] = 0 // kill residual rounding error
		}
	}
	if f := s.obj[enter]; f != 0 {
		for j := range s.obj {
			s.obj[j] -= f * pr[j]
		}
		s.obj[enter] = 0
	}
	s.basis[leave] = enter
}

// restore puts variable j's bound back as the row x_j + s = upper[j],
// untouched, as the unpresolved tableau still holds it, and lifts the
// bound. It returns the column now standing for column j: j itself, or,
// for a flipped x_j (basic in that row), s, which takes over column j's
// entries — the slack's, in that tableau.
func (s *Solver) restore(j int) int {
	w, r, sl := s.w, s.m, s.n+len(s.kept)+j
	row := s.tab[r*w : (r+1)*w]
	row[j], row[sl], row[w-1] = 1, 1, s.upper[j]
	s.m, s.upper[j], s.basis[r] = r+1, math.Inf(1), sl
	if !s.flipped[j] {
		return j
	}
	for i := range r {
		ri := s.tab[i*w : (i+1)*w]
		ri[sl], ri[j] = ri[j], 0
	}
	s.obj[sl], s.obj[j] = s.obj[j], 0
	s.basis[r], s.flipped[j] = j, false
	return sl
}

// flip moves nonbasic variable j to its other bound by writing upper − x_j
// for x_j: every row gives up a·upper of its right-hand side and column j
// changes sign, its reduced cost with it. Operation for operation, this
// is the unpresolved tableau's pivot on j's untouched bound row.
func (s *Solver) flip(j int) {
	u, w := s.upper[j], s.w
	for i := range s.m {
		row := s.tab[i*w : (i+1)*w]
		if a := row[j]; a != 0 {
			row[w-1] -= a * u
			row[j] = -a
		}
	}
	if a := s.obj[j]; a != 0 {
		s.obj[w-1] -= a * u
		s.obj[j] = -a
	}
	s.flipped[j] = !s.flipped[j]
}
