package lp

import (
	"math"
	"testing"
)

// mutated solves p, certifies the answer, which must have status want, and
// returns a copy of it whose witness slices the caller may edit.
func mutated(t *testing.T, p *Problem, want Status) *Solution {
	t.Helper()
	s := solveOK(t, p)
	if s.Status != want {
		t.Fatalf("status %v, want %v", s.Status, want)
	}
	c := *s
	c.X = append([]float64(nil), s.X...)
	c.Duals = append([]float64(nil), s.Duals...)
	c.Ray = append([]float64(nil), s.Ray...)
	return &c
}

// Nudging one entry of an optimal X past the primal tolerance must fail
// Check, whether the step breaks a row, a bound or only Objective = Obj·X.
func TestCheckRejectsNudgedX(t *testing.T) {
	p := textbook()
	for j := range p.Obj {
		for _, step := range []float64{-1e-5, 1e-5} {
			s := mutated(t, p, Optimal)
			s.X[j] += step
			if _, err := Check(p, s); err == nil {
				t.Errorf("x[%d] moved by %g: Check accepted %v", j, step, s.X)
			}
		}
	}
	// A bound: x = 0 moved below its lower bound, objective kept in step.
	q := &Problem{
		Obj:   []float64{-1, 1},
		Cols:  NewCSCFromDense([][]float64{{1, 1}}, 2),
		Sense: []Sense{LE},
		B:     []float64{1},
	}
	s := mutated(t, q, Optimal)
	s.X[0] -= 1e-5
	s.Objective += 1e-5
	if _, err := Check(q, s); err == nil {
		t.Errorf("x[0] = %g below its bound 0: Check accepted it", s.X[0])
	}
}

// Flipping the sign of one nonzero dual must fail Check: on an inequality
// row the sign projection drops it, on an equality row it moves the bound,
// and either way the weak-duality bound leaves the objective.
func TestCheckRejectsFlippedDual(t *testing.T) {
	eq := &Problem{ // max x + 2y st x + y == 3, x - y <= 1: duals (2, 0)
		Obj:   []float64{1, 2},
		Cols:  NewCSCFromDense([][]float64{{1, 1}, {1, -1}}, 2),
		Sense: []Sense{EQ, LE},
		B:     []float64{3, 1},
	}
	for _, p := range []*Problem{textbook(), eq} {
		for i := range p.B {
			s := mutated(t, p, Optimal)
			if s.Duals[i] == 0 {
				continue
			}
			s.Duals[i] = -s.Duals[i]
			if bound, err := Check(p, s); err == nil {
				t.Errorf("dual %d flipped to %g: Check accepted bound %v for objective %v", i, s.Duals[i], bound, s.Objective)
			}
		}
	}
	s := mutated(t, textbook(), Optimal)
	s.Duals = nil
	if _, err := Check(textbook(), s); err == nil {
		t.Error("an optimal answer without duals passed Check")
	}
}

// A negated Farkas vector proves nothing and must fail Check, for the
// phase-1 vector of a cold solve and for the dual simplex's row of a warm
// one.
func TestCheckRejectsNegatedFarkas(t *testing.T) {
	cold := &Problem{ // x >= 5 and x <= 2
		Obj:   []float64{1},
		Cols:  NewCSCFromDense([][]float64{{1}, {1}}, 1),
		Sense: []Sense{GE, LE},
		B:     []float64{5, 2},
	}
	s := mutated(t, cold, Infeasible)
	for i := range s.Duals {
		s.Duals[i] = -s.Duals[i]
	}
	if bound, err := Check(cold, s); err == nil {
		t.Errorf("negated Farkas vector %v accepted with bound %v", s.Duals, bound)
	}

	// x + y <= 4 solved, then both fixed at 3 by their bounds: the warm
	// dual simplex proves the row infeasible.
	p := &Problem{
		Obj:   []float64{1, 1},
		Cols:  NewCSCFromDense([][]float64{{1, 1}}, 2),
		Sense: []Sense{LE},
		B:     []float64{4},
		Upper: []float64{3, 3},
	}
	base := solveOK(t, p)
	q := *p
	q.Lower = []float64{3, 3}
	warm, err := Simplex{}.SolveWarm(&q, base.Basis)
	if err != nil || warm.Status != Infeasible || !warm.WarmStarted {
		t.Fatalf("warm solve: %v, warm-started %v (%v); want a warm infeasible answer", warm.Status, warm.WarmStarted, err)
	}
	certify(t, &q, warm)
	warm.Duals[0] = -warm.Duals[0]
	if bound, err := Check(&q, warm); err == nil {
		t.Errorf("negated warm Farkas vector %v accepted with bound %v", warm.Duals, bound)
	}
}

// A negated ray descends and must fail Check, as must a ray that leaves a
// row or the box.
func TestCheckRejectsNegatedRay(t *testing.T) {
	p := &Problem{ // max x st y <= 1, with x free to grow
		Obj:   []float64{1, 0},
		Cols:  NewCSCFromDense([][]float64{{0, 1}}, 2),
		Sense: []Sense{LE},
		B:     []float64{1},
	}
	s := mutated(t, p, Unbounded)
	if bound, err := Check(p, s); err != nil || !math.IsInf(bound, 1) {
		t.Fatalf("unbounded answer: bound %v, %v; want +Inf", bound, err)
	}
	for j := range s.Ray {
		s.Ray[j] = -s.Ray[j]
	}
	if _, err := Check(p, s); err == nil {
		t.Errorf("negated ray %v accepted", s.Ray)
	}
	s = mutated(t, p, Unbounded)
	s.Ray[1] = 1 // y grows past its row
	if _, err := Check(p, s); err == nil {
		t.Errorf("ray %v leaving row 0 accepted", s.Ray)
	}
}
