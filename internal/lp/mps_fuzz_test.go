package lp_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vmalloc/internal/lp"
	"vmalloc/internal/testutil/mps"
)

// FuzzParseMPS asserts the reader never panics on arbitrary input and that
// anything it accepts survives a write→parse round trip. The vendored
// corpus plus a few malformed fragments seed the fuzzer; `go test` runs the
// seeds as plain unit cases, CI adds a short fuzzing smoke on top.
func FuzzParseMPS(f *testing.F) {
	dir := filepath.Join("testdata", "netlib")
	files, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, fe := range files {
		data, err := os.ReadFile(filepath.Join(dir, fe.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Add("")
	f.Add("NAME\nROWS\n N OBJ\nCOLUMNS\n    A OBJ 1\nENDATA\n")
	f.Add("ROWS\n N OBJ\n L R\nCOLUMNS\n    A OBJ 1e308\n    A R 1e308\nRHS\n    S R -1e308\nENDATA\n")
	f.Add("OBJSENSE\n    MAX\nROWS\n N OBJ\nCOLUMNS\n    A OBJ nan\nENDATA\n")
	f.Add("ROWS\n N OBJ\nCOLUMNS\n    A OBJ 1\nBOUNDS\n UP B A 0\n LO B A 0\n FX B A 0\nENDATA\n")
	f.Add("RANGES\n    R A 1\nENDATA\n")

	f.Fuzz(func(t *testing.T, src string) {
		p, err := mps.Parse(strings.NewReader(src))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := lp.WriteMPS(&buf, p); err != nil {
			t.Fatalf("accepted model fails to write: %v\ninput:\n%s", err, src)
		}
		q, err := mps.Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("written model fails to reparse: %v\nwritten:\n%s", err, buf.String())
		}
		if q.NumVars() != p.NumVars() || q.NumRows() != p.NumRows() {
			t.Fatalf("round trip changed dims: %dx%d -> %dx%d",
				p.NumRows(), p.NumVars(), q.NumRows(), q.NumVars())
		}
	})
}
