package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"vmalloc/internal/vec"
)

// The differential reference for the one-pass reader: encoding/json into
// alias types (same field tags, no methods), then the same normalization,
// made strict about keys the way the reader is — exact case, none unknown,
// none repeated — which encoding/json's case-insensitive, last-wins
// matching is not.

type nodeAlias struct {
	Name       string  `json:"name,omitempty"`
	Elementary vec.Vec `json:"elementary"`
	Aggregate  vec.Vec `json:"aggregate"`
}

type serviceAlias struct {
	Name     string  `json:"name,omitempty"`
	ReqElem  vec.Vec `json:"req_elem"`
	ReqAgg   vec.Vec `json:"req_agg"`
	NeedElem vec.Vec `json:"need_elem"`
	NeedAgg  vec.Vec `json:"need_agg"`
}

// strictKeys rejects an object holding a key outside keys, in another case,
// or twice. Anything that is not an object is left to json.Unmarshal.
func strictKeys(data []byte, keys []string) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	tok, err := dec.Token()
	if err != nil || tok != json.Delim('{') {
		return err
	}
	seen := map[string]bool{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		k := tok.(string)
		known := false
		for _, want := range keys {
			known = known || k == want
		}
		if !known || seen[k] {
			return fmt.Errorf("bad key %q", k)
		}
		seen[k] = true
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return err
		}
	}
	return nil
}

func refVec(kind string, v vec.Vec) (vec.Vec, error) {
	if v == nil {
		v = vec.Vec{}
	}
	return v, checkFinite(kind, v)
}

func refService(data []byte) (Service, error) {
	if err := strictKeys(data, serviceKeys); err != nil {
		return Service{}, err
	}
	var a serviceAlias
	if err := json.Unmarshal(data, &a); err != nil {
		return Service{}, err
	}
	var errs [4]error
	a.ReqElem, errs[0] = refVec("service elementary requirement", a.ReqElem)
	a.ReqAgg, errs[1] = refVec("service aggregate requirement", a.ReqAgg)
	a.NeedElem, errs[2] = refVec("service elementary need", a.NeedElem)
	a.NeedAgg, errs[3] = refVec("service aggregate need", a.NeedAgg)
	return Service(a), errors.Join(errs[:]...)
}

func refNode(data []byte) (Node, error) {
	if err := strictKeys(data, nodeKeys); err != nil {
		return Node{}, err
	}
	var a nodeAlias
	if err := json.Unmarshal(data, &a); err != nil {
		return Node{}, err
	}
	var e1, e2 error
	a.Elementary, e1 = refVec("node elementary capacity", a.Elementary)
	a.Aggregate, e2 = refVec("node aggregate capacity", a.Aggregate)
	return Node(a), errors.Join(e1, e2)
}

// sameBits reports whether two vectors hold identical float bits (and are
// both non-nil, as every decoded vector is).
func sameBits(a, b vec.Vec) bool {
	if a == nil || b == nil || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameService(a, b Service) bool {
	return a.Name == b.Name && sameBits(a.ReqElem, b.ReqElem) && sameBits(a.ReqAgg, b.ReqAgg) &&
		sameBits(a.NeedElem, b.NeedElem) && sameBits(a.NeedAgg, b.NeedAgg)
}

func sameNode(a, b Node) bool {
	return a.Name == b.Name && sameBits(a.Elementary, b.Elementary) && sameBits(a.Aggregate, b.Aggregate)
}

// checkAgainstReference decodes data as a service and as a node with both
// the one-pass reader and the reference and fails on any disagreement. It
// also checks that a decoded value's Clone holds its bits and shares no
// memory with it.
func checkAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	var s Service
	err := s.UnmarshalJSON(data)
	want, werr := refService(data)
	if (err == nil) != (werr == nil) {
		t.Fatalf("service %q: reader err %v, reference err %v", data, err, werr)
	}
	if err == nil && !sameService(s, want) {
		t.Fatalf("service %q: reader %#v, reference %#v", data, s, want)
	}
	if err == nil {
		c := s.Clone()
		if !sameService(c, s) {
			t.Fatalf("service %q: clone %#v of %#v", data, c, s)
		}
		for _, v := range []vec.Vec{c.ReqElem, c.ReqAgg, c.NeedElem, c.NeedAgg} {
			flip(v)
		}
		if !sameService(s, want) {
			t.Fatalf("service %q: writing its clone changed it to %#v", data, s)
		}
	}
	var n Node
	err = n.UnmarshalJSON(data)
	wantN, werr := refNode(data)
	if (err == nil) != (werr == nil) {
		t.Fatalf("node %q: reader err %v, reference err %v", data, err, werr)
	}
	if err == nil && !sameNode(n, wantN) {
		t.Fatalf("node %q: reader %#v, reference %#v", data, n, wantN)
	}
	if err == nil {
		c := n.Clone()
		if !sameNode(c, n) {
			t.Fatalf("node %q: clone %#v of %#v", data, c, n)
		}
		flip(c.Elementary)
		flip(c.Aggregate)
		if !sameNode(n, wantN) {
			t.Fatalf("node %q: writing its clone changed it to %#v", data, n)
		}
	}
}

// descriptorCorpus is the seed set of FuzzServiceJSON and the table of
// TestDecoderMatchesReference: canonical forms, numbers strconv.ParseFloat
// takes but JSON forbids, extreme magnitudes, escaped names, whitespace,
// nulls, bad keys and truncations.
var descriptorCorpus = []string{
	`{"req_elem":[0.5,1],"req_agg":[1,2],"need_elem":[0.1,0],"need_agg":[0.2,0]}`,
	`{"name":"svc-0","req_elem":[0.1,1e-7],"req_agg":[0.3333333333333333,0.2],"need_elem":[2e+21,0],"need_agg":[0.30000000000000004,123456789.5]}`,
	`{"name":"A","elementary":[0.8,1],"aggregate":[3.2,1]}`,
	`{"need_agg":[1],"req_elem":[2]}`,
	`{}`, `null`, ` null `, `{"req_elem":null,"elementary":null}`, `{"name":null}`,
	`{"req_elem":[]}`, `{"req_elem":[null,1,null]}`, `{"aggregate":[ 1 , 2 ]}`,
	" \t\r\n{ \"req_elem\" :\n[ 1 ]\t} \n",
	// Numbers outside the JSON grammar.
	`{"req_elem":[01]}`, `{"req_elem":[+1]}`, `{"req_elem":[.5]}`, `{"req_elem":[1.]}`,
	`{"req_elem":[1e]}`, `{"req_elem":[1e+]}`, `{"req_elem":[NaN]}`, `{"req_elem":[Inf]}`,
	`{"req_elem":[-Inf]}`, `{"req_elem":[Infinity]}`, `{"req_elem":[0x1p-2]}`, `{"req_elem":[1_0]}`,
	`{"req_elem":[-]}`, `{"req_elem":[--1]}`, `{"req_elem":[0.0e0]}`,
	// Signs and magnitudes.
	`{"req_elem":[-1]}`, `{"req_elem":[-0]}`, `{"req_elem":[-0.0]}`, `{"elementary":[-0]}`,
	`{"req_elem":[1e400]}`, `{"req_elem":[-1e400]}`, `{"req_elem":[1e-400]}`,
	`{"req_elem":[5e-324]}`, `{"req_elem":[2.2250738585072014e-308]}`, `{"req_elem":[4.9406564584124654e-324]}`,
	`{"req_elem":[1.7976931348623157e308]}`, `{"req_elem":[1.7976931348623159e308]}`,
	`{"req_elem":[123456789012345678901234567890]}`, `{"req_elem":[1E5,1e-05,1.5E+3]}`,
	`{"req_elem":[0.1000000000000000055511151231257827021181583404541015625]}`,
	// Names and escapes.
	`{"name":"a\"b\\c\/d\b\f\n\r\t"}`, `{"name":"é世😀"}`,
	`{"name":"\ud83d"}`, `{"name":"\ud83dx"}`, `{"name":"\ude00\ud83d"}`, `{"name":"\ud83dA"}`,
	`{"name":"\u00"}`, `{"name":"\uZZZZ"}`, `{"name":"\x"}`, `{"name":"tab	inside"}`,
	"{\"name\":\"\xff\xfe\"}", "{\"name\":\"caf\xc3\xa9\"}", "{\"name\":\"\xc3\"}", "{\"name\":\"\xef\xbf\xbd\"}",
	`{"name":"x","req_elem":[1]}`, `{"name":5}`, `{"name":["a"]}`,
	// Keys.
	`{"bogus":42}`, `{"REQ_ELEM":[1]}`, `{"Name":"x"}`, `{"req_elem":[1],"req_elem":[2]}`,
	`{"name":"a","name":"b"}`, `{"":1}`, `{"req_elem":[1],}`, `{,"req_elem":[1]}`, `{"req_elem"[1]}`,
	`{"elementary":[1],"aggregate":[2],"extra":{}}`,
	// Shapes and truncation.
	`{"req_elem":[[1]]}`, `{"req_elem":{"a":1}}`, `{"req_elem":"1"}`, `{"req_elem":true}`,
	`{"req_elem":[true]}`, `{"req_elem":[nul]}`, `{"req_elem":[1 2]}`, `{"req_elem":[1,]}`,
	`[1]`, `"x"`, `1`, `true`, ``, ` `, `{`, `{"req_elem`, `{"req_elem":`, `{"req_elem":[1`,
	`{"req_elem":[1]`, `{"name":"abc`, `{"req_elem":[1]} x`, `{"req_elem":[1]}{}`, `nullx`, `nul`,
	"null\x00", "{}\x00",
}

func TestDecoderMatchesReference(t *testing.T) {
	for _, in := range descriptorCorpus {
		checkAgainstReference(t, []byte(in))
	}
}

// TestDecoderRejectsBadKeys pins that unknown, wrong-case and duplicate keys
// are errors naming the key.
func TestDecoderRejectsBadKeys(t *testing.T) {
	for _, tc := range []struct {
		in, key string
		node    bool
	}{
		{`{"req_elem":[1],"bogus":42}`, `"bogus"`, false},
		{`{"REQ_ELEM":[1]}`, `"REQ_ELEM"`, false},
		{`{"req_elem":[1],"req_elem":[1]}`, `"req_elem"`, false},
		{`{"name":"a","name":"a","req_agg":[]}`, `"name"`, false},
		{`{"elementary":[1],"Aggregate":[1]}`, `"Aggregate"`, true},
		{`{"elementary":[1],"req_elem":[1]}`, `"req_elem"`, true},
	} {
		var err error
		if tc.node {
			err = new(Node).UnmarshalJSON([]byte(tc.in))
		} else {
			err = new(Service).UnmarshalJSON([]byte(tc.in))
		}
		if err == nil || !strings.Contains(err.Error(), tc.key) {
			t.Errorf("%s: err %v, want one naming %s", tc.in, err, tc.key)
		}
	}
}

// genFloat draws from the values the canonical encoder must carry bit for
// bit: ordinary fractions, integers, both sides of the fixed/exponent
// cutover, denormals, the float64 extremes and negative zero.
func genFloat(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
	case 3:
		return math.MaxFloat64 / float64(1+rng.Intn(4))
	case 4:
		return math.Float64frombits(rng.Uint64() &^ (1 << 63) % math.Float64bits(math.MaxFloat64))
	case 5:
		return float64(rng.Intn(1 << 30))
	case 6:
		return rng.Float64() * 1e-6 * 2
	case 7:
		return rng.Float64() * 1e21 * 2
	default:
		return rng.Float64()
	}
}

func genVec(rng *rand.Rand) vec.Vec {
	v := make(vec.Vec, rng.Intn(5))
	for i := range v {
		v[i] = genFloat(rng)
	}
	return v
}

func genName(rng *rand.Rand) string {
	const pieces = "ab\"\\/\b\f\n\r\t\x00\x1f\x7f<>&é世  😀� "
	r := []rune(pieces)
	var b strings.Builder
	for i := rng.Intn(8); i > 0; i-- {
		b.WriteRune(r[rng.Intn(len(r))])
	}
	return b.String()
}

// TestDecodeRoundTrip: the reader reads back every Marshal output bit for
// bit, for generated services and nodes.
func TestDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		s := Service{Name: genName(rng), ReqElem: genVec(rng), ReqAgg: genVec(rng), NeedElem: genVec(rng), NeedAgg: genVec(rng)}
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back Service
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: %v", data, err)
		}
		if !sameService(back, s) {
			t.Fatalf("%s: read back %#v, want %#v", data, back, s)
		}
		checkAgainstReference(t, data)

		n := Node{Name: genName(rng), Elementary: genVec(rng), Aggregate: genVec(rng)}
		if data, err = json.Marshal(n); err != nil {
			t.Fatal(err)
		}
		var backN Node
		if err := json.Unmarshal(data, &backN); err != nil {
			t.Fatalf("%s: %v", data, err)
		}
		if !sameNode(backN, n) {
			t.Fatalf("%s: read back %#v, want %#v", data, backN, n)
		}
		checkAgainstReference(t, data)
	}
}

// FuzzServiceJSON checks the one-pass reader against the reference: the same
// accept or reject decision on every input, and identical bits whenever
// both accept.
func FuzzServiceJSON(f *testing.F) {
	for _, in := range descriptorCorpus {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, data)
	})
}

func BenchmarkDecodeService(b *testing.B) {
	data := []byte(`{"name":"svc-0","req_elem":[0.1,0.2],"req_agg":[0.3333333333333333,0.2],"need_elem":[0.25,0],"need_agg":[0.30000000000000004,0.5]}`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var s Service
		if err := s.UnmarshalJSON(data); err != nil {
			b.Fatal(err)
		}
	}
}
