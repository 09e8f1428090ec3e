// MPS writer for the canonical Problem form, so models built by
// internal/relax can be dumped for external solvers (GLPK, CPLEX, HiGHS) —
// `vmalloc -mps-out` is its caller. The writer emits canonical fixed format
// with deterministic names and shortest round-tripping numerals, so
// write→parse→write is byte-stable under the test-only reader in
// internal/testutil/mps.
//
// MPS has no native objective sense; the historical convention is
// minimization. Problem is a maximization form, so the writer always emits
// OBJSENSE MAX with the coefficients as stored.

package lp

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// mpsName returns the canonical generated name for a row or column.
func mpsColName(j int) string { return "X" + strconv.Itoa(j) }
func mpsRowName(i int) string { return "R" + strconv.Itoa(i) }

// mpsNum renders a value with the shortest representation that ParseFloat
// recovers exactly, keeping write→parse→write byte-stable.
func mpsNum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteMPS writes the problem in canonical fixed-format MPS: OBJSENSE MAX
// (coefficients as stored), generated names COST/RHS/BND and X<j>/R<i>, one
// coefficient per COLUMNS line, zero objective and RHS entries omitted
// (except that a column with no matrix entries keeps its objective entry so
// it stays declared). Output is deterministic, so writing, parsing, and
// writing again reproduces the bytes exactly.
func WriteMPS(w io.Writer, p *Problem) error {
	if err := p.Validate(); err != nil {
		return err
	}
	c := p.Cols
	bw := bufio.NewWriter(w)

	field := func(s string) string {
		if len(s) < 10 {
			return s + strings.Repeat(" ", 10-len(s))
		}
		return s + "  "
	}

	fmt.Fprintln(bw, "NAME          VMALLOC")
	fmt.Fprintln(bw, "OBJSENSE")
	fmt.Fprintln(bw, "    MAX")
	fmt.Fprintln(bw, "ROWS")
	fmt.Fprintln(bw, " N  COST")
	for i, s := range p.Sense {
		t := "L"
		switch s {
		case GE:
			t = "G"
		case EQ:
			t = "E"
		}
		fmt.Fprintf(bw, " %s  %s\n", t, mpsRowName(i))
	}
	fmt.Fprintln(bw, "COLUMNS")
	for j := 0; j < c.N; j++ {
		name := field(mpsColName(j))
		wrote := false
		if p.Obj[j] != 0 { //vmalloc:nondet-ok structural zero test deciding MPS section membership
			fmt.Fprintf(bw, "    %s%s%s\n", name, field("COST"), mpsNum(p.Obj[j]))
			wrote = true
		}
		for k := c.ColPtr[j]; k < c.ColPtr[j+1]; k++ {
			fmt.Fprintf(bw, "    %s%s%s\n", name, field(mpsRowName(c.RowIdx[k])), mpsNum(c.Val[k]))
			wrote = true
		}
		if !wrote {
			// Columns only exist through COLUMNS entries; declare with an
			// explicit zero objective coefficient.
			fmt.Fprintf(bw, "    %s%s0\n", name, field("COST"))
		}
	}
	fmt.Fprintln(bw, "RHS")
	for i, b := range p.B {
		if b != 0 { //vmalloc:nondet-ok structural zero test deciding MPS section membership
			fmt.Fprintf(bw, "    %s%s%s\n", field("RHS"), field(mpsRowName(i)), mpsNum(b))
		}
	}
	needBounds := false
	for j := 0; j < c.N; j++ {
		if lowerOf(p, j) != 0 || !math.IsInf(upperOf(p, j), 1) { //vmalloc:nondet-ok structural zero/default-bound test deciding MPS section membership
			needBounds = true
			break
		}
	}
	if needBounds {
		fmt.Fprintln(bw, "BOUNDS")
		for j := 0; j < c.N; j++ {
			l, u := lowerOf(p, j), upperOf(p, j)
			switch {
			case l == u: //vmalloc:nondet-ok exact bound equality encodes a fixed variable; bounds are stored, not computed
				fmt.Fprintf(bw, " FX %s%s%s\n", field("BND"), field(mpsColName(j)), mpsNum(l))
			default:
				if l != 0 { //vmalloc:nondet-ok structural zero test deciding MPS section membership
					fmt.Fprintf(bw, " LO %s%s%s\n", field("BND"), field(mpsColName(j)), mpsNum(l))
				}
				if !math.IsInf(u, 1) {
					fmt.Fprintf(bw, " UP %s%s%s\n", field("BND"), field(mpsColName(j)), mpsNum(u))
				}
			}
		}
	}
	fmt.Fprintln(bw, "ENDATA")
	return bw.Flush()
}

func lowerOf(p *Problem, j int) float64 {
	if p.Lower == nil {
		return 0
	}
	return p.Lower[j]
}

func upperOf(p *Problem, j int) float64 {
	if p.Upper == nil {
		return math.Inf(1)
	}
	return p.Upper[j]
}
