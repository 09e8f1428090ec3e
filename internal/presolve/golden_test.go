package presolve_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"vmalloc/internal/lp"
	"vmalloc/internal/presolve"
	"vmalloc/internal/relax"
	"vmalloc/internal/testutil/mps"
	"vmalloc/internal/workload"
)

var updateGolden = flag.Bool("golden.update", false, "rewrite testdata/reductions.golden from the current reducer")

const goldenParks = 100

// paperRelaxation is the 8x64 relaxation of seeded park number seed, cycling
// through the platform heterogeneities and memory slacks of the paper's grid.
func paperRelaxation(seed int64) *lp.Problem {
	scn := workload.Scenario{
		Hosts: 8, Services: 64,
		COV:   []float64{0, 0.5, 1.0}[seed%3],
		Slack: []float64{0.3, 0.5, 0.7}[(seed/3)%3],
		Seed:  seed,
	}
	return relax.Encode(workload.Generate(scn)).LP
}

// milpNode is a 3x8 branch-and-bound node LP: the relaxation of seeded park
// number seed with one to four seeded placement fixings applied the way
// internal/milp applies them (0 through Upper, 1 through Lower and Upper).
func milpNode(seed int64) *lp.Problem {
	scn := workload.Scenario{Hosts: 3, Services: 8, COV: 0.5, Slack: 0.5, Seed: seed}
	enc := relax.Encode(workload.Generate(scn))
	q := *enc.LP
	q.Upper = append([]float64(nil), enc.LP.Upper...)
	q.Lower = make([]float64, q.NumVars())
	rng := rand.New(rand.NewSource(seed))
	for k := 1 + rng.Intn(4); k > 0; k-- {
		v := enc.EVar(rng.Intn(enc.J), rng.Intn(enc.H))
		switch {
		case rng.Intn(3) == 0 && q.Upper[v] >= 1:
			q.Lower[v], q.Upper[v] = 1, 1
		case q.Lower[v] == 0:
			q.Upper[v] = 0
		}
	}
	return &q
}

// counters is the layout the fingerprints were captured in: presolve.Stats
// with the nonzero counts of the model before and after reduction, which the
// test counts itself (0 after, unless the outcome is Reduced).
type counters struct {
	RowsBefore, RowsAfter int
	ColsBefore, ColsAfter int
	NNZBefore, NNZAfter   int
	FixedCols             int
	DroppedRows           int
	SubstCols             int
	BoundsTightened       int
	DoubletonSlacks       int
}

// fingerprint condenses a reduction into one line: outcome, every counter,
// the length of the postsolve stack, and a hash of the reduced model's
// canonical MPS text (shortest round-trip floats, so equal hashes mean equal
// bits in every coefficient, bound and right-hand side, in the same order).
func fingerprint(t *testing.T, name string, p *lp.Problem) string {
	t.Helper()
	red, err := presolve.Reduce(p, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	st := red.Stats()
	c := counters{
		RowsBefore: st.RowsBefore, RowsAfter: st.RowsAfter,
		ColsBefore: st.ColsBefore, ColsAfter: st.ColsAfter,
		NNZBefore: p.Cols.NNZ(),
		FixedCols: st.FixedCols, DroppedRows: st.DroppedRows, SubstCols: st.SubstCols,
		BoundsTightened: st.BoundsTightened, DoubletonSlacks: st.DoubletonSlacks,
	}
	sum := "-"
	if red.Outcome() == presolve.Reduced {
		c.NNZAfter = red.Problem().Cols.NNZ()
		var buf bytes.Buffer
		if err := lp.WriteMPS(&buf, red.Problem()); err != nil {
			t.Fatalf("%s: WriteMPS: %v", name, err)
		}
		sum = fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
	}
	return fmt.Sprintf("%s %v %+v records=%d mps=%s", name, red.Outcome(), c, red.RecordCount(), sum)
}

// TestGoldenReductions pins "same reductions, same order": the fingerprints
// in testdata/reductions.golden were captured from the row-copying reducer
// this kernel replaced, over the netlib corpus and 100 paper-scale
// relaxations, plus 100 branch-and-bound nodes recaptured when the
// integrality option went (no caller presolves nodes any more), and must be
// reproduced byte for byte.
func TestGoldenReductions(t *testing.T) {
	var lines []string
	files, err := filepath.Glob(filepath.Join("..", "lp", "testdata", "netlib", "*.mps"))
	if err != nil || len(files) == 0 {
		t.Fatalf("netlib corpus not found: %v", err)
	}
	sort.Strings(files)
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := mps.Parse(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		lines = append(lines, fingerprint(t, "netlib/"+filepath.Base(path), p))
	}
	for seed := int64(1); seed <= goldenParks; seed++ {
		lines = append(lines, fingerprint(t, fmt.Sprintf("relax8x64/%d", seed), paperRelaxation(seed)))
		lines = append(lines, fingerprint(t, fmt.Sprintf("node3x8/%d", seed), milpNode(seed)))
	}
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", "reductions.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	for i, line := range lines {
		if i >= len(wantLines) || line != wantLines[i] {
			w := "<missing>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Fatalf("reduction %d diverged from the golden capture\n got: %s\nwant: %s", i, line, w)
		}
	}
	t.Fatalf("golden file has %d lines, reducer produced %d", len(wantLines)-1, len(lines))
}
