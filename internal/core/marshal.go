package core

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"vmalloc/internal/vec"
)

// This file pins a *stable* JSON serialization for the problem model: the
// byte output of Marshal is a canonical function of the value — fixed key
// order, empty vectors as [], names omitted when empty, floats in the
// shortest representation that round-trips exactly — independent of
// encoding/json internals. Snapshots of the durable allocation service, the
// vmallocd HTTP API and the `vmalloc -state-in/-state-out` files all share
// it, so state written by one tier is bit-stable input for the others (and
// for golden tests).

// appendJSONFloat appends the canonical JSON form of f: shortest decimal
// that parses back to exactly f, using the same fixed/exponent cutover as
// encoding/json so canonical output matches what default marshaling has
// historically produced. Non-finite values are a hard error — they cannot
// survive a JSON round trip.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, fmt.Errorf("core: value %g not representable in JSON", f)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) { //vmalloc:nondet-ok exact-zero/threshold test selecting a formatting branch, not an arithmetic comparison
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendJSONVec appends v as a JSON array; nil and empty both encode as [].
func appendJSONVec(b []byte, v vec.Vec) ([]byte, error) {
	b = append(b, '[')
	var err error
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		if b, err = appendJSONFloat(b, x); err != nil {
			return nil, err
		}
	}
	return append(b, ']'), nil
}

func appendJSONName(b []byte, name string) ([]byte, error) {
	q, err := json.Marshal(name)
	if err != nil {
		return nil, err
	}
	b = append(b, `"name":`...)
	b = append(b, q...)
	return append(b, ','), nil
}

// MarshalJSON emits the canonical form of a node:
// {"name":...,"elementary":[...],"aggregate":[...]} with name omitted when
// empty.
func (n Node) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	var err error
	if n.Name != "" {
		if b, err = appendJSONName(b, n.Name); err != nil {
			return nil, err
		}
	}
	b = append(b, `"elementary":`...)
	if b, err = appendJSONVec(b, n.Elementary); err != nil {
		return nil, err
	}
	b = append(b, `,"aggregate":`...)
	if b, err = appendJSONVec(b, n.Aggregate); err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// MarshalJSON emits the canonical form of a service: name (omitted when
// empty) followed by req_elem, req_agg, need_elem, need_agg.
func (s Service) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	var err error
	if s.Name != "" {
		if b, err = appendJSONName(b, s.Name); err != nil {
			return nil, err
		}
	}
	for _, f := range []struct {
		key string
		v   vec.Vec
	}{
		{`"req_elem":`, s.ReqElem},
		{`,"req_agg":`, s.ReqAgg},
		{`,"need_elem":`, s.NeedElem},
		{`,"need_agg":`, s.NeedAgg},
	} {
		b = append(b, f.key...)
		if b, err = appendJSONVec(b, f.v); err != nil {
			return nil, err
		}
	}
	return append(b, '}'), nil
}

// MarshalJSON emits the canonical problem form: {"nodes":[...],
// "services":[...]} with empty slices as [].
func (p Problem) MarshalJSON() ([]byte, error) {
	b := append([]byte{'{'}, `"nodes":[`...)
	for i := range p.Nodes {
		if i > 0 {
			b = append(b, ',')
		}
		nb, err := p.Nodes[i].MarshalJSON()
		if err != nil {
			return nil, err
		}
		b = append(b, nb...)
	}
	b = append(b, `],"services":[`...)
	for i := range p.Services {
		if i > 0 {
			b = append(b, ',')
		}
		sb, err := p.Services[i].MarshalJSON()
		if err != nil {
			return nil, err
		}
		b = append(b, sb...)
	}
	return append(b, ']', '}'), nil
}

// MarshalJSON emits a placement as a plain array of node indices with
// Unplaced as -1; nil encodes as [].
func (pl Placement) MarshalJSON() ([]byte, error) {
	b := []byte{'['}
	for i, h := range pl {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(h), 10)
	}
	return append(b, ']'), nil
}

// The unmarshal side is a one-pass reader of the descriptor grammar, the
// mirror of the encoder above. A node or service is null (read as the zero
// descriptor with empty vectors) or an object whose keys are each one of its
// fields' exact names, at most once; a vector is null (empty) or an array of
// numbers, a null entry reading as 0. Strings and numbers follow RFC 8259 and
// decode exactly as encoding/json does them: numbers through
// strconv.ParseFloat, invalid UTF-8 and lone surrogates in names as U+FFFD.
// Decoded values must be finite and non-negative — the journal/snapshot
// layer depends on decoded state never smuggling NaN or Inf into the
// engine's incremental load arithmetic.

var (
	nodeKeys    = []string{"name", "elementary", "aggregate"}
	serviceKeys = []string{"name", "req_elem", "req_agg", "need_elem", "need_agg"}
)

// descDecoder reads one descriptor from data. Its error is sticky: after the
// first failure every read is a no-op returning a zero value.
type descDecoder struct {
	data []byte
	off  int
	err  error
}

func (d *descDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("core: "+format, args...)
	}
}

// syntax reports that the byte at the read offset (or the end of input) is
// not the want the grammar allows there.
func (d *descDecoder) syntax(want string) {
	if d.off >= len(d.data) {
		d.fail("unexpected end of JSON input, want %s", want)
	} else {
		d.fail("invalid character %q at offset %d, want %s", d.data[d.off], d.off, want)
	}
}

// next skips whitespace and returns the byte at the read offset, 0 at the
// end of input or after an error.
func (d *descDecoder) next() byte {
	for d.err == nil && d.off < len(d.data) {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return c
		}
	}
	return 0
}

// expect consumes c after optional whitespace.
func (d *descDecoder) expect(c byte, want string) bool {
	if d.next() != c {
		d.syntax(want)
		return false
	}
	d.off++
	return true
}

// null consumes a null literal if one comes next.
func (d *descDecoder) null() bool {
	if d.next() != 'n' {
		return false
	}
	if len(d.data)-d.off < 4 || string(d.data[d.off:d.off+4]) != "null" {
		d.syntax("null")
		return false
	}
	d.off += 4
	return true
}

// end checks that nothing but whitespace follows the value.
func (d *descDecoder) end() {
	if d.next(); d.err == nil && d.off < len(d.data) {
		d.syntax("end of input")
	}
}

// key reads the next key of an object whose keys must be among keys, each at
// most once (seen tracks them by bit; d.off sits just past the opening
// brace while seen is 0). It returns the key's index with the read offset
// at its value, or -1 at the closing brace or on error.
func (d *descDecoder) key(kind string, keys []string, seen *uint) int {
	c := d.next()
	if c == '}' {
		d.off++
		return -1
	}
	if *seen != 0 && !d.expect(',', "',' or '}'") {
		return -1
	}
	name := d.str("object key")
	if !d.expect(':', "':'") {
		return -1
	}
	for i, k := range keys {
		if string(name) == k {
			if *seen&(1<<i) != 0 {
				d.fail("%s has duplicate key %q", kind, k)
				return -1
			}
			*seen |= 1 << i
			return i
		}
	}
	d.fail("%s has unknown key %q", kind, name)
	return -1
}

// str reads a JSON string. The result aliases the input when the string
// holds no escapes and is valid UTF-8, and is a fresh buffer otherwise.
func (d *descDecoder) str(want string) []byte {
	if !d.expect('"', want) {
		return nil
	}
	start := d.off
	for d.off < len(d.data) {
		c := d.data[d.off]
		switch {
		case c == '"':
			d.off++
			return d.data[start : d.off-1]
		case c == '\\':
			return d.unquote(append([]byte(nil), d.data[start:d.off]...))
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(d.data[d.off:])
			if r == utf8.RuneError && size == 1 {
				return d.unquote(append([]byte(nil), d.data[start:d.off]...))
			}
			d.off += size
		case c < ' ':
			d.syntax("string character")
			return nil
		default:
			d.off++
		}
	}
	d.syntax("closing quote")
	return nil
}

// unquote finishes a string that needs decoding, appending to b: escapes
// are resolved and invalid UTF-8 becomes U+FFFD, exactly as encoding/json's
// unquote does.
func (d *descDecoder) unquote(b []byte) []byte {
	for d.off < len(d.data) {
		c := d.data[d.off]
		switch {
		case c == '"':
			d.off++
			return b
		case c == '\\':
			if d.off+1 >= len(d.data) {
				d.off++
				d.syntax("escape character")
				return nil
			}
			switch e := d.data[d.off+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(d.data[d.off:])
				if r < 0 {
					d.off += 2
					d.syntax("four hex digits")
					return nil
				}
				d.off += 6
				if utf16.IsSurrogate(r) {
					// A valid pair is consumed whole; anything else leaves
					// U+FFFD and reads on from the next escape as usual.
					if dec := utf16.DecodeRune(r, hex4(d.data[d.off:])); dec != unicode.ReplacementChar {
						d.off += 6
						r = dec
					} else {
						r = unicode.ReplacementChar
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.off++
				d.syntax("escape character")
				return nil
			}
			d.off += 2
		case c < ' ':
			d.syntax("string character")
			return nil
		case c < utf8.RuneSelf:
			b = append(b, c)
			d.off++
		default:
			r, size := utf8.DecodeRune(d.data[d.off:])
			b = utf8.AppendRune(b, r) // RuneError for an invalid byte
			d.off += size
		}
	}
	d.syntax("closing quote")
	return nil
}

// hex4 decodes the \uXXXX escape at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// name reads a descriptor name: a string, or null for none.
func (d *descDecoder) name() string {
	if d.null() {
		return ""
	}
	return string(d.str("string or null"))
}

// number reads one JSON number. The grammar is checked here —
// strconv.ParseFloat alone would also take 01, +1, .5, 1_0, 0x1p-2, Inf and
// NaN — and the value is parsed by strconv.ParseFloat, as encoding/json
// parses it, so it has the same bits; a magnitude beyond float64 is an
// error there too.
func (d *descDecoder) number() float64 {
	start, i, n := d.off, d.off, len(d.data)
	digits := func() bool {
		j := i
		for i < n && '0' <= d.data[i] && d.data[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < n && d.data[i] == '-' {
		i++
	}
	switch {
	case i < n && d.data[i] == '0':
		i++
	case !digits():
		d.off = i
		d.syntax("digit")
		return 0
	}
	if i < n && d.data[i] == '.' {
		i++
		if !digits() {
			d.off = i
			d.syntax("digit")
			return 0
		}
	}
	if i < n && (d.data[i] == 'e' || d.data[i] == 'E') {
		i++
		if i < n && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		if !digits() {
			d.off = i
			d.syntax("digit")
			return 0
		}
	}
	d.off = i
	f, err := strconv.ParseFloat(string(d.data[start:i]), 64)
	if err != nil {
		d.fail("number %s is out of range", d.data[start:i])
		return 0
	}
	return f
}

// vec appends one vector (null or an array of numbers and nulls) to buf.
func (d *descDecoder) vec(buf []float64) []float64 {
	if d.null() || !d.expect('[', "array or null") {
		return buf
	}
	if d.next() == ']' {
		d.off++
		return buf
	}
	for d.err == nil {
		if d.null() {
			buf = append(buf, 0)
		} else if c := d.next(); c == '-' || ('0' <= c && c <= '9') {
			buf = append(buf, d.number())
		} else {
			d.syntax("number or null")
			break
		}
		if d.next() == ']' {
			d.off++
			break
		}
		d.expect(',', "',' or ']'")
	}
	return buf
}

// descriptor reads a node or service: its name and the vectors under
// keys[1:], vecs[k-1] receiving the one under keys[k]. The vectors share one
// backing array; null and missing ones are empty.
func (d *descDecoder) descriptor(kind string, keys []string, vecs []*vec.Vec) (name string) {
	var scratch [16]float64
	buf := scratch[:0]
	var bounds [4][2]int // of each vector in buf; a service has four
	if !d.null() && d.expect('{', "object or null") {
		var seen uint
		for k := d.key(kind, keys, &seen); k >= 0; k = d.key(kind, keys, &seen) {
			if k == 0 {
				name = d.name()
				continue
			}
			from := len(buf)
			buf = d.vec(buf)
			bounds[k-1] = [2]int{from, len(buf)}
		}
	}
	d.end()
	if d.err != nil {
		return ""
	}
	all := make(vec.Vec, len(buf))
	copy(all, buf)
	for i, v := range vecs {
		lo, hi := bounds[i][0], bounds[i][1]
		*v = all[lo:hi:hi]
	}
	return name
}

func checkFinite(kind string, v vec.Vec) error {
	for dd, x := range v {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("core: %s has invalid value %g in dimension %d", kind, x, dd)
		}
	}
	return nil
}

// UnmarshalJSON decodes a node, normalizing null vectors to empty and
// rejecting unknown keys and negative or non-finite capacities.
func (n *Node) UnmarshalJSON(data []byte) error {
	d := descDecoder{data: data}
	var out Node
	out.Name = d.descriptor("node", nodeKeys, []*vec.Vec{&out.Elementary, &out.Aggregate})
	if d.err != nil {
		return d.err
	}
	if err := checkFinite("node elementary capacity", out.Elementary); err != nil {
		return err
	}
	if err := checkFinite("node aggregate capacity", out.Aggregate); err != nil {
		return err
	}
	*n = out
	return nil
}

// UnmarshalJSON decodes a service, normalizing null vectors to empty and
// rejecting unknown keys and negative or non-finite entries.
func (s *Service) UnmarshalJSON(data []byte) error {
	d := descDecoder{data: data}
	var out Service
	out.Name = d.descriptor("service", serviceKeys,
		[]*vec.Vec{&out.ReqElem, &out.ReqAgg, &out.NeedElem, &out.NeedAgg})
	if d.err != nil {
		return d.err
	}
	for _, f := range []struct {
		kind string
		v    vec.Vec
	}{
		{"service elementary requirement", out.ReqElem},
		{"service aggregate requirement", out.ReqAgg},
		{"service elementary need", out.NeedElem},
		{"service aggregate need", out.NeedAgg},
	} {
		if err := checkFinite(f.kind, f.v); err != nil {
			return err
		}
	}
	*s = out
	return nil
}

// problemAlias reuses the element decoders (and their finiteness checks) —
// []Node and []Service, not bare structs.
type problemAlias struct {
	Nodes    []Node    `json:"nodes"`
	Services []Service `json:"services"`
}

// UnmarshalJSON decodes a problem. Per-vector validation happens in the
// element decoders; cross-field consistency (matching dimensionalities,
// elementary <= aggregate) stays with Validate, which ReadJSON applies.
func (p *Problem) UnmarshalJSON(data []byte) error {
	var a problemAlias
	if err := json.Unmarshal(data, &a); err != nil {
		return err
	}
	*p = Problem{Nodes: a.Nodes, Services: a.Services}
	return nil
}

// UnmarshalJSON decodes a placement from an array of integer node indices
// (Unplaced as -1). Fractional or sub-Unplaced values are rejected.
func (pl *Placement) UnmarshalJSON(data []byte) error {
	var raw []int
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("core: placement must be an array of node indices: %w", err)
	}
	for i, h := range raw {
		if h < Unplaced {
			return fmt.Errorf("core: placement entry %d is %d, below Unplaced (%d)", i, h, Unplaced)
		}
	}
	*pl = Placement(raw)
	return nil
}
