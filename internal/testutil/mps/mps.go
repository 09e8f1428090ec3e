// Package mps reads MPS models into lp's canonical Problem form, so that
// reference instances can be vendored as test fixtures (internal/lp's
// testdata/netlib). Only tests import it; lp.WriteMPS is the production
// half. The reader accepts both fixed- and free-format files: section
// headers start in column one, data lines are indented, and fields are
// whitespace-delimited — the fixed-format column positions are a strict
// subset of that grammar for any file whose names contain no blanks.
//
// MPS has no native objective sense; the historical convention is
// minimization. Problem is a maximization form, so the reader honours an
// OBJSENSE section (MIN negates the objective into max form, MAX keeps it)
// and defaults to MIN for bare files. Constructs with no Problem
// equivalent — RANGES sections, free (FR) and minus-infinity (MI) bounds,
// integrality markers — are rejected with *UnsupportedError rather than
// silently mangled.
package mps

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"vmalloc/internal/lp"
)

// ParseError reports malformed MPS input.
type ParseError struct {
	Line int // 1-based line number, 0 when not tied to a line
	Msg  string
}

func (e *ParseError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("mps line %d: %s", e.Line, e.Msg)
	}
	return "mps: " + e.Msg
}

// UnsupportedError reports a well-formed MPS construct that Problem
// cannot represent (RANGES, FR/MI/BV bounds, integrality markers).
type UnsupportedError struct {
	Line    int
	Feature string
}

func (e *UnsupportedError) Error() string {
	return fmt.Sprintf("mps line %d: unsupported feature: %s", e.Line, e.Feature)
}

// rowDecl is a ROWS-section entry being assembled.
type rowDecl struct {
	sense lp.Sense
	index int // constraint index; -1 for the objective row
}

// Parse reads an MPS model and returns it in the solver's maximization
// form (a minimizing file has its objective negated). The constraint matrix
// comes back column-sparse with columns in order of first appearance; the
// result passes Validate. Names are not retained: Problem has no name
// fields, and the writer regenerates canonical ones.
func Parse(r io.Reader) (*lp.Problem, error) {
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

	rows := map[string]*rowDecl{}
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
				return nil, &ParseError{lineNo, "content after ENDATA"}
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
				return nil, &UnsupportedError{lineNo, "RANGES section"}
			case "ENDATA":
				ended = true
			default:
				return nil, &ParseError{lineNo, "unknown section " + fields[0]}
			}
			continue
		}

		fields := strings.Fields(line)
		switch section {
		case secObjsense:
			if sawObjsense {
				return nil, &ParseError{lineNo, "duplicate OBJSENSE value"}
			}
			sawObjsense = true
			switch fields[0] {
			case "MIN", "MINIMIZE":
				minimize = true
			case "MAX", "MAXIMIZE":
				minimize = false
			default:
				return nil, &ParseError{lineNo, "bad OBJSENSE " + fields[0]}
			}
		case secRows:
			if len(fields) != 2 {
				return nil, &ParseError{lineNo, "ROWS entry needs a type and a name"}
			}
			typ, name := fields[0], fields[1]
			if _, dup := rows[name]; dup {
				return nil, &ParseError{lineNo, "duplicate row " + name}
			}
			switch typ {
			case "N":
				if objRow != "" {
					return nil, &UnsupportedError{lineNo, "second free (N) row " + name}
				}
				objRow = name
				rows[name] = &rowDecl{index: -1}
			case "L":
				rows[name] = &rowDecl{sense: lp.LE, index: len(rowOrder)}
				rowOrder = append(rowOrder, name)
			case "G":
				rows[name] = &rowDecl{sense: lp.GE, index: len(rowOrder)}
				rowOrder = append(rowOrder, name)
			case "E":
				rows[name] = &rowDecl{sense: lp.EQ, index: len(rowOrder)}
				rowOrder = append(rowOrder, name)
			default:
				return nil, &ParseError{lineNo, "bad row type " + typ}
			}
		case secColumns:
			if len(fields) >= 3 && fields[1] == "'MARKER'" {
				return nil, &UnsupportedError{lineNo, "integrality marker"}
			}
			if len(fields) != 3 && len(fields) != 5 {
				return nil, &ParseError{lineNo, "COLUMNS entry needs 1 or 2 row/value pairs"}
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
					return nil, &ParseError{lineNo, "unknown row " + fields[k]}
				}
				v, err := strconv.ParseFloat(fields[k+1], 64)
				if err != nil {
					return nil, &ParseError{lineNo, "bad value " + fields[k+1]}
				}
				for _, e := range entries[j] {
					if e.row == row.index {
						return nil, &ParseError{lineNo, "duplicate coefficient for column " + name + " in row " + fields[k]}
					}
				}
				entries[j] = append(entries[j], coef{row.index, v})
			}
		case secRHS:
			if len(fields) != 3 && len(fields) != 5 {
				return nil, &ParseError{lineNo, "RHS entry needs 1 or 2 row/value pairs"}
			}
			for k := 1; k < len(fields); k += 2 {
				row, ok := rows[fields[k]]
				if !ok {
					return nil, &ParseError{lineNo, "unknown row " + fields[k]}
				}
				if row.index < 0 {
					return nil, &UnsupportedError{lineNo, "objective-row RHS (constant offset)"}
				}
				v, err := strconv.ParseFloat(fields[k+1], 64)
				if err != nil {
					return nil, &ParseError{lineNo, "bad value " + fields[k+1]}
				}
				rhs[row.index] = v
			}
		case secBounds:
			if len(fields) < 3 {
				return nil, &ParseError{lineNo, "BOUNDS entry needs a type, set name, and column"}
			}
			typ, name := fields[0], fields[2]
			j, ok := cols[name]
			if !ok {
				return nil, &ParseError{lineNo, "bound on unknown column " + name}
			}
			b := bounds[j]
			if b == nil {
				b = &bnd{}
				bounds[j] = b
			}
			switch typ {
			case "FR", "MI", "BV", "LI", "UI":
				return nil, &UnsupportedError{lineNo, "bound type " + typ}
			}
			var v float64
			if typ != "PL" {
				if len(fields) != 4 {
					return nil, &ParseError{lineNo, "bound type " + typ + " needs a value"}
				}
				var err error
				v, err = strconv.ParseFloat(fields[3], 64)
				if err != nil {
					return nil, &ParseError{lineNo, "bad value " + fields[3]}
				}
			}
			switch typ {
			case "UP":
				if v < 0 && !b.hasL {
					// Classic MPS gives UP<0 an implied -inf lower bound,
					// which Problem cannot hold.
					return nil, &UnsupportedError{lineNo, "negative UP bound without explicit lower bound (implies -inf)"}
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
				return nil, &ParseError{lineNo, "bad bound type " + typ}
			}
		default:
			return nil, &ParseError{lineNo, "data line outside any section"}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !ended {
		return nil, &ParseError{lineNo, "missing ENDATA"}
	}
	if objRow == "" {
		return nil, &ParseError{0, "no objective (N) row"}
	}
	if len(colOrder) == 0 {
		return nil, &ParseError{0, "no columns"}
	}

	n, m := len(colOrder), len(rowOrder)
	p := &lp.Problem{
		Obj:   make([]float64, n),
		Sense: make([]lp.Sense, m),
		B:     make([]float64, m),
		Lower: make([]float64, n),
		Upper: make([]float64, n),
	}
	for _, name := range rowOrder {
		r := rows[name]
		p.Sense[r.index] = r.sense
	}
	for i, v := range rhs { // dense RHS slots are written independently; result is order-free
		p.B[i] = v
	}
	bld := lp.NewSparseBuilder(n)
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
		return nil, fmt.Errorf("mps: model invalid after parse: %w", err)
	}
	return p, nil
}
