// MPS reader/writer for the canonical Problem form, so models built by
// internal/relax can be dumped for external solvers (GLPK, CPLEX, HiGHS) and
// reference instances can be vendored as fixtures (testdata/netlib). The
// reader accepts both fixed- and free-format files: section headers start in
// column one, data lines are indented, and fields are whitespace-delimited —
// the fixed-format column positions are a strict subset of that grammar for
// any file whose names contain no blanks. The writer emits canonical fixed
// format with deterministic names and shortest round-tripping numerals, so
// write→parse→write is byte-stable.
//
// MPS has no native objective sense; the historical convention is
// minimization. Problem is a maximization form, so the reader honours an
// OBJSENSE section (MIN negates the objective into max form, MAX keeps it)
// and defaults to MIN for bare files; the writer always emits OBJSENSE MAX
// with the coefficients as stored. Constructs with no Problem equivalent —
// RANGES sections, free (FR) and minus-infinity (MI) bounds, integrality
// markers — are rejected with *MPSUnsupportedError rather than silently
// mangled.

package lp

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// MPSParseError reports malformed MPS input.
type MPSParseError struct {
	Line int // 1-based line number, 0 when not tied to a line
	Msg  string
}

func (e *MPSParseError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("lp: mps line %d: %s", e.Line, e.Msg)
	}
	return "lp: mps: " + e.Msg
}

// MPSUnsupportedError reports a well-formed MPS construct that Problem
// cannot represent (RANGES, FR/MI/BV bounds, integrality markers).
type MPSUnsupportedError struct {
	Line    int
	Feature string
}

func (e *MPSUnsupportedError) Error() string {
	return fmt.Sprintf("lp: mps line %d: unsupported feature: %s", e.Line, e.Feature)
}

// mpsRow is a ROWS-section entry being assembled.
type mpsRow struct {
	sense Sense
	index int // constraint index; -1 for the objective row
}

// ParseMPS reads an MPS model and returns it in the solver's maximization
// form (a minimizing file has its objective negated). The constraint matrix
// comes back column-sparse with columns in order of first appearance; the
// result passes Validate. Names are not retained: Problem has no name
// fields, and the writer regenerates canonical ones.
func ParseMPS(r io.Reader) (*Problem, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)

	const (
		secNone = iota
		secObjsense
		secRows
		secColumns
		secRHS
		secBounds
	)
	section := secNone
	minimize := true // historical default
	sawObjsense := false

	rows := map[string]*mpsRow{}
	rowOrder := []string{} // constraint rows in declaration order
	objRow := ""

	cols := map[string]int{}
	colOrder := []string{}
	type coef struct {
		row int // -1 = objective
		v   float64
	}
	entries := map[int][]coef{} // col index -> coefficients
	rhs := map[int]float64{}    // row index -> rhs
	type bnd struct {
		l, u       float64
		hasL, hasU bool
	}
	bounds := map[int]*bnd{}

	lineNo := 0
	ended := false
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if ended {
			if strings.TrimSpace(line) != "" {
				return nil, &MPSParseError{lineNo, "content after ENDATA"}
			}
			continue
		}
		if i := strings.IndexByte(line, '*'); i == 0 {
			continue // comment line
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		if line[0] != ' ' && line[0] != '\t' {
			// Section header.
			fields := strings.Fields(line)
			switch fields[0] {
			case "NAME":
				section = secNone // name operand ignored
			case "OBJSENSE":
				section = secObjsense
			case "ROWS":
				section = secRows
			case "COLUMNS":
				section = secColumns
			case "RHS":
				section = secRHS
			case "BOUNDS":
				section = secBounds
			case "RANGES":
				return nil, &MPSUnsupportedError{lineNo, "RANGES section"}
			case "ENDATA":
				ended = true
			default:
				return nil, &MPSParseError{lineNo, "unknown section " + fields[0]}
			}
			continue
		}

		fields := strings.Fields(line)
		switch section {
		case secObjsense:
			if sawObjsense {
				return nil, &MPSParseError{lineNo, "duplicate OBJSENSE value"}
			}
			sawObjsense = true
			switch fields[0] {
			case "MIN", "MINIMIZE":
				minimize = true
			case "MAX", "MAXIMIZE":
				minimize = false
			default:
				return nil, &MPSParseError{lineNo, "bad OBJSENSE " + fields[0]}
			}
		case secRows:
			if len(fields) != 2 {
				return nil, &MPSParseError{lineNo, "ROWS entry needs a type and a name"}
			}
			typ, name := fields[0], fields[1]
			if _, dup := rows[name]; dup {
				return nil, &MPSParseError{lineNo, "duplicate row " + name}
			}
			switch typ {
			case "N":
				if objRow != "" {
					return nil, &MPSUnsupportedError{lineNo, "second free (N) row " + name}
				}
				objRow = name
				rows[name] = &mpsRow{index: -1}
			case "L":
				rows[name] = &mpsRow{sense: LE, index: len(rowOrder)}
				rowOrder = append(rowOrder, name)
			case "G":
				rows[name] = &mpsRow{sense: GE, index: len(rowOrder)}
				rowOrder = append(rowOrder, name)
			case "E":
				rows[name] = &mpsRow{sense: EQ, index: len(rowOrder)}
				rowOrder = append(rowOrder, name)
			default:
				return nil, &MPSParseError{lineNo, "bad row type " + typ}
			}
		case secColumns:
			if len(fields) >= 3 && fields[1] == "'MARKER'" {
				return nil, &MPSUnsupportedError{lineNo, "integrality marker"}
			}
			if len(fields) != 3 && len(fields) != 5 {
				return nil, &MPSParseError{lineNo, "COLUMNS entry needs 1 or 2 row/value pairs"}
			}
			name := fields[0]
			j, ok := cols[name]
			if !ok {
				j = len(colOrder)
				cols[name] = j
				colOrder = append(colOrder, name)
			}
			for k := 1; k < len(fields); k += 2 {
				row, ok := rows[fields[k]]
				if !ok {
					return nil, &MPSParseError{lineNo, "unknown row " + fields[k]}
				}
				v, err := strconv.ParseFloat(fields[k+1], 64)
				if err != nil {
					return nil, &MPSParseError{lineNo, "bad value " + fields[k+1]}
				}
				for _, e := range entries[j] {
					if e.row == row.index {
						return nil, &MPSParseError{lineNo, "duplicate coefficient for column " + name + " in row " + fields[k]}
					}
				}
				entries[j] = append(entries[j], coef{row.index, v})
			}
		case secRHS:
			if len(fields) != 3 && len(fields) != 5 {
				return nil, &MPSParseError{lineNo, "RHS entry needs 1 or 2 row/value pairs"}
			}
			for k := 1; k < len(fields); k += 2 {
				row, ok := rows[fields[k]]
				if !ok {
					return nil, &MPSParseError{lineNo, "unknown row " + fields[k]}
				}
				if row.index < 0 {
					return nil, &MPSUnsupportedError{lineNo, "objective-row RHS (constant offset)"}
				}
				v, err := strconv.ParseFloat(fields[k+1], 64)
				if err != nil {
					return nil, &MPSParseError{lineNo, "bad value " + fields[k+1]}
				}
				rhs[row.index] = v
			}
		case secBounds:
			if len(fields) < 3 {
				return nil, &MPSParseError{lineNo, "BOUNDS entry needs a type, set name, and column"}
			}
			typ, name := fields[0], fields[2]
			j, ok := cols[name]
			if !ok {
				return nil, &MPSParseError{lineNo, "bound on unknown column " + name}
			}
			b := bounds[j]
			if b == nil {
				b = &bnd{}
				bounds[j] = b
			}
			switch typ {
			case "FR", "MI", "BV", "LI", "UI":
				return nil, &MPSUnsupportedError{lineNo, "bound type " + typ}
			}
			var v float64
			if typ != "PL" {
				if len(fields) != 4 {
					return nil, &MPSParseError{lineNo, "bound type " + typ + " needs a value"}
				}
				var err error
				v, err = strconv.ParseFloat(fields[3], 64)
				if err != nil {
					return nil, &MPSParseError{lineNo, "bad value " + fields[3]}
				}
			}
			switch typ {
			case "UP":
				if v < 0 && !b.hasL {
					// Classic MPS gives UP<0 an implied -inf lower bound,
					// which Problem cannot hold.
					return nil, &MPSUnsupportedError{lineNo, "negative UP bound without explicit lower bound (implies -inf)"}
				}
				b.u, b.hasU = v, true
			case "LO":
				b.l, b.hasL = v, true
			case "FX":
				b.l, b.hasL = v, true
				b.u, b.hasU = v, true
			case "PL":
				b.u, b.hasU = math.Inf(1), true
			default:
				return nil, &MPSParseError{lineNo, "bad bound type " + typ}
			}
		default:
			return nil, &MPSParseError{lineNo, "data line outside any section"}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !ended {
		return nil, &MPSParseError{lineNo, "missing ENDATA"}
	}
	if objRow == "" {
		return nil, &MPSParseError{0, "no objective (N) row"}
	}
	if len(colOrder) == 0 {
		return nil, &MPSParseError{0, "no columns"}
	}

	n, m := len(colOrder), len(rowOrder)
	p := &Problem{
		Obj:   make([]float64, n),
		Sense: make([]Sense, m),
		B:     make([]float64, m),
		Lower: make([]float64, n),
		Upper: make([]float64, n),
	}
	for _, name := range rowOrder {
		r := rows[name]
		p.Sense[r.index] = r.sense
	}
	for i, v := range rhs { //vmalloc:nondet-ok dense RHS slots are written independently; result is order-free
		p.B[i] = v
	}
	bld := NewSparseBuilder(n)
	for j := range colOrder {
		for _, e := range entries[j] {
			if e.row < 0 {
				p.Obj[j] = e.v
				continue
			}
			bld.Add(e.row, j, e.v)
		}
	}
	p.Cols = bld.Build(m)
	for j := 0; j < n; j++ {
		p.Upper[j] = math.Inf(1)
		if b := bounds[j]; b != nil {
			if b.hasL {
				p.Lower[j] = b.l
			}
			if b.hasU {
				p.Upper[j] = b.u
			}
		}
	}
	if minimize {
		for j := range p.Obj {
			p.Obj[j] = -p.Obj[j]
		}
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("lp: mps model invalid after parse: %w", err)
	}
	return p, nil
}

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
