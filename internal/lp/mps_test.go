package lp_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vmalloc/internal/lp"
	"vmalloc/internal/presolve"
	"vmalloc/internal/testutil/mps"
)

// netlibOptima lists the vendored corpus with optima in the solver's
// maximization form (minimizing files negate: e.g. transp's min 210 is a
// max of -210). These values gate both the raw simplex and the presolving
// solve in CI.
var netlibOptima = map[string]float64{
	"klee3.mps":   10000,
	"beale.mps":   0.05,
	"transp.mps":  -210,
	"diet.mps":    -7,
	"degen.mps":   2,
	"bndtest.mps": 7,
}

func parseNetlib(t *testing.T, name string) *lp.Problem {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "netlib", name))
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	defer f.Close()
	p, err := mps.Parse(f)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return p
}

// solvers are the two solve paths every netlib model must pass: the raw
// simplex and the presolving solve.
var solvers = []struct {
	name  string
	solve func(*lp.Problem, *lp.Basis) (*lp.Solution, error)
}{
	{"simplex", lp.Simplex{}.SolveWarm},
	{"presolve", func(p *lp.Problem, _ *lp.Basis) (*lp.Solution, error) { return presolve.Solve(p) }},
}

// TestNetlibKnownOptima is the CI gate for solver correctness on the
// vendored corpus: both solve paths must reproduce the documented optimum to
// 1e-4, and Check must certify each answer. The presolving solve returns no
// duals, so its answer is certified with the raw simplex's: any duals give a
// valid bound, so they prove its postsolved point feasible and optimal.
func TestNetlibKnownOptima(t *testing.T) {
	for name, want := range netlibOptima {
		p := parseNetlib(t, name)
		var duals []float64
		for _, s := range solvers {
			sol, err := s.solve(p, nil)
			if err != nil {
				t.Errorf("%s via %s: %v", name, s.name, err)
				continue
			}
			if sol.Status != lp.Optimal {
				t.Errorf("%s via %s: status %v, want optimal", name, s.name, sol.Status)
				continue
			}
			if math.Abs(sol.Objective-want) > 1e-4 {
				t.Errorf("%s via %s: objective %.6f, want %.6f", name, s.name, sol.Objective, want)
			}
			if sol.Duals == nil {
				sol = &lp.Solution{Status: lp.Optimal, X: sol.X, Objective: sol.Objective, Duals: duals}
			}
			duals = sol.Duals
			if _, err := lp.Check(p, sol); err != nil {
				t.Errorf("%s via %s: %v", name, s.name, err)
			}
		}
	}
}

// nonFiniteMPS is a two-row model, max x0 + x1 subject to x0 + x1 <= 4 and
// x0 - x1 <= 2, whose optimum is 4; the three verbs fill in x0's objective
// coefficient, its coefficient in R0 and R0's right-hand side. x0's PL bound
// keeps an infinite upper bound, which stays valid.
const nonFiniteMPS = `NAME          NONFINITE
OBJSENSE
    MAX
ROWS
 N  COST
 L  R0
 L  R1
COLUMNS
    X0        COST      %s
    X0        R0        %s
    X0        R1        1
    X1        COST      1
    X1        R0        1
    X1        R1        -1
RHS
    RHS       R0        %s
    RHS       R1        2
BOUNDS
 PL BND       X0
ENDATA
`

// TestValidateRejectsNonFinite: a NaN or infinite objective coefficient,
// matrix entry or right-hand side is refused, by mps.Parse (through
// Validate) and by every solve path, instead of solving to a wrong Optimal.
func TestValidateRejectsNonFinite(t *testing.T) {
	parse := func(obj, a, rhs string) (*lp.Problem, error) {
		return mps.Parse(strings.NewReader(fmt.Sprintf(nonFiniteMPS, obj, a, rhs)))
	}
	p, err := parse("1", "1", "4")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range solvers {
		if sol, err := s.solve(p, nil); err != nil || sol.Status != lp.Optimal || sol.Objective != 4 {
			t.Fatalf("finite model via %s: %v, want optimal 4 (%v)", s.name, sol, err)
		}
	}
	for _, tc := range []struct {
		name        string
		obj, a, rhs string
		edit        func(q *lp.Problem, v float64)
		replacement float64
	}{
		{"NaN coefficient", "1", "NaN", "4", func(q *lp.Problem, v float64) { q.Cols.Val[0] = v }, math.NaN()},
		{"+Inf coefficient", "1", "+Inf", "4", func(q *lp.Problem, v float64) { q.Cols.Val[0] = v }, math.Inf(1)},
		{"-Inf coefficient", "1", "-Inf", "4", func(q *lp.Problem, v float64) { q.Cols.Val[0] = v }, math.Inf(-1)},
		{"NaN right-hand side", "1", "1", "NaN", func(q *lp.Problem, v float64) { q.B[0] = v }, math.NaN()},
		{"+Inf right-hand side", "1", "1", "+Inf", func(q *lp.Problem, v float64) { q.B[0] = v }, math.Inf(1)},
		{"NaN objective", "NaN", "1", "4", func(q *lp.Problem, v float64) { q.Obj[0] = v }, math.NaN()},
		{"+Inf objective", "+Inf", "1", "4", func(q *lp.Problem, v float64) { q.Obj[0] = v }, math.Inf(1)},
	} {
		if _, err := parse(tc.obj, tc.a, tc.rhs); err == nil {
			t.Errorf("%s: mps.Parse accepted the model", tc.name)
		}
		q := *p
		q.Obj = append([]float64(nil), p.Obj...)
		q.B = append([]float64(nil), p.B...)
		c := *p.Cols
		c.Val = append([]float64(nil), p.Cols.Val...)
		q.Cols = &c
		tc.edit(&q, tc.replacement)
		if err := q.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the model", tc.name)
		}
		if _, err := lp.Check(&q, &lp.Solution{Status: lp.Optimal}); err == nil {
			t.Errorf("%s: Check accepted an answer to the model", tc.name)
		}
		for _, s := range solvers {
			if _, err := s.solve(&q, nil); err == nil {
				t.Errorf("%s: solved via %s", tc.name, s.name)
			}
		}
	}
}

// TestMPSRoundTripNetlib checks writer canonicalization: parsing any valid
// file and writing it yields a form that is a fixed point of write→parse.
func TestMPSRoundTripNetlib(t *testing.T) {
	for name := range netlibOptima {
		p := parseNetlib(t, name)
		var first bytes.Buffer
		if err := lp.WriteMPS(&first, p); err != nil {
			t.Fatalf("write %s: %v", name, err)
		}
		q, err := mps.Parse(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reparse %s: %v", name, err)
		}
		var second bytes.Buffer
		if err := lp.WriteMPS(&second, q); err != nil {
			t.Fatalf("rewrite %s: %v", name, err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("%s: write->parse->write not byte-stable", name)
		}
	}
}

// randomProblem builds a small LP with the full variety of features the MPS
// layer must carry: all three senses, zero coefficients, empty columns,
// negative and fixed bounds, infinite uppers.
func randomProblem(rng *rand.Rand) *lp.Problem {
	n := 1 + rng.Intn(8)
	m := rng.Intn(7)
	p := &lp.Problem{
		Obj:   make([]float64, n),
		Sense: make([]lp.Sense, m),
		B:     make([]float64, m),
		Lower: make([]float64, n),
		Upper: make([]float64, n),
	}
	for j := 0; j < n; j++ {
		if rng.Intn(4) > 0 {
			p.Obj[j] = math.Round(rng.NormFloat64()*100) / 16 // dyadic: exact in float
		}
		p.Lower[j] = 0
		if rng.Intn(3) == 0 {
			p.Lower[j] = math.Round(rng.NormFloat64()*32) / 16
		}
		p.Upper[j] = math.Inf(1)
		switch rng.Intn(3) {
		case 0:
			p.Upper[j] = p.Lower[j] + float64(rng.Intn(20))/4
		case 1:
			p.Upper[j] = p.Lower[j] // fixed
		}
	}
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, n)
		for j := range a[i] {
			if rng.Intn(2) == 0 {
				a[i][j] = math.Round(rng.NormFloat64()*64) / 16
			}
		}
		p.Sense[i] = lp.Sense(rng.Intn(3))
		p.B[i] = math.Round(rng.NormFloat64() * 8)
	}
	p.Cols = lp.NewCSCFromDense(a, n)
	return p
}

// TestMPSRoundTripProperty: for random problems, write→parse→write is
// byte-stable and the parsed problem is solver-equivalent to the original.
func TestMPSRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		p := randomProblem(rng)
		var first bytes.Buffer
		if err := lp.WriteMPS(&first, p); err != nil {
			t.Fatalf("trial %d: write: %v", trial, err)
		}
		q, err := mps.Parse(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: parse: %v\n%s", trial, err, first.String())
		}
		var second bytes.Buffer
		if err := lp.WriteMPS(&second, q); err != nil {
			t.Fatalf("trial %d: rewrite: %v", trial, err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("trial %d: write->parse->write not byte-stable:\n--- first\n%s\n--- second\n%s",
				trial, first.String(), second.String())
		}
		if q.NumVars() != p.NumVars() || q.NumRows() != p.NumRows() {
			t.Fatalf("trial %d: dims changed: %dx%d -> %dx%d",
				trial, p.NumRows(), p.NumVars(), q.NumRows(), q.NumVars())
		}
		sp, errP := lp.Simplex{}.SolveWarm(p, nil)
		sq, errQ := lp.Simplex{}.SolveWarm(q, nil)
		if (errP == nil) != (errQ == nil) {
			t.Fatalf("trial %d: solve error mismatch: %v vs %v", trial, errP, errQ)
		}
		if errP != nil {
			continue
		}
		if sp.Status != sq.Status {
			t.Fatalf("trial %d: status %v vs %v", trial, sp.Status, sq.Status)
		}
		if sp.Status == lp.Optimal && math.Abs(sp.Objective-sq.Objective) > 1e-9*(1+math.Abs(sp.Objective)) {
			t.Fatalf("trial %d: objective %.12g vs %.12g", trial, sp.Objective, sq.Objective)
		}
	}
}

func TestMPSUnsupportedAndMalformed(t *testing.T) {
	var unsup *mps.UnsupportedError
	var malformed *mps.ParseError
	cases := []struct {
		name string
		src  string
		want any
	}{
		{"ranges", "NAME X\nROWS\n N OBJ\n L R0\nCOLUMNS\n    A OBJ 1\nRANGES\n    RNG R0 4\nENDATA\n", &unsup},
		{"free bound", "NAME X\nROWS\n N OBJ\nCOLUMNS\n    A OBJ 1\nBOUNDS\n FR BND A\nENDATA\n", &unsup},
		{"mi bound", "NAME X\nROWS\n N OBJ\nCOLUMNS\n    A OBJ 1\nBOUNDS\n MI BND A\nENDATA\n", &unsup},
		{"marker", "NAME X\nROWS\n N OBJ\nCOLUMNS\n    M1 'MARKER' 'INTORG'\nENDATA\n", &unsup},
		{"second N row", "NAME X\nROWS\n N OBJ\n N OBJ2\nENDATA\n", &unsup},
		{"negative UP", "NAME X\nROWS\n N OBJ\nCOLUMNS\n    A OBJ 1\nBOUNDS\n UP BND A -3\nENDATA\n", &unsup},
		{"no endata", "NAME X\nROWS\n N OBJ\nCOLUMNS\n    A OBJ 1\n", &malformed},
		{"unknown row", "NAME X\nROWS\n N OBJ\nCOLUMNS\n    A NOPE 1\nENDATA\n", &malformed},
		{"bad number", "NAME X\nROWS\n N OBJ\nCOLUMNS\n    A OBJ abc\nENDATA\n", &malformed},
		{"no columns", "NAME X\nROWS\n N OBJ\nENDATA\n", &malformed},
		{"no objective", "NAME X\nROWS\n L R0\nCOLUMNS\n    A R0 1\nENDATA\n", &malformed},
		{"dup coefficient", "NAME X\nROWS\n N OBJ\n L R0\nCOLUMNS\n    A R0 1\n    A R0 2\nENDATA\n", &malformed},
	}
	for _, tc := range cases {
		_, err := mps.Parse(strings.NewReader(tc.src))
		if err == nil {
			t.Errorf("%s: expected error, got nil", tc.name)
			continue
		}
		if !errors.As(err, tc.want) {
			t.Errorf("%s: error %v has wrong type (want %T)", tc.name, err, tc.want)
		}
	}
}
