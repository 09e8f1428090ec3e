package milp_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vmalloc/internal/lp"
	"vmalloc/internal/presolve"
	"vmalloc/internal/relax"
	"vmalloc/internal/testutil/grid"
	"vmalloc/internal/workload"
)

const pathRelaxations = 300

// bitsHash is the SHA-256 of the IEEE-754 bits of xs, in order.
func bitsHash(xs ...float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// relaxationPath solves 8x64 relaxation i the way the LP tier's first solve
// does — presolve, then a cold simplex solve of the reduced model — checks
// the answer with lp.Check, and describes the pivot path: status,
// iterations, refactorizations and a hash of the bits of X and the
// objective.
func relaxationPath(i int) (string, string, error) {
	scn := grid.Scenario(i)
	red, err := presolve.Reduce(relax.Encode(workload.Generate(scn)).LP, nil)
	if err != nil {
		return "", "", err
	}
	if red.Outcome() != presolve.Reduced {
		return scn.String(), fmt.Sprintf("presolve=%v", red.Outcome()), nil
	}
	sol, err := lp.Simplex{}.SolveWarm(red.Problem(), nil)
	if err != nil {
		return "", "", err
	}
	if _, err := lp.Check(red.Problem(), sol); err != nil {
		return "", "", fmt.Errorf("%v: %w", scn, err)
	}
	return scn.String(), fmt.Sprintf("%v iters=%d refactors=%d bits=%s",
		sol.Status, sol.Iters, sol.Refactorizations, bitsHash(append(sol.X, sol.Objective)...)), nil
}

// treePath describes the branch-and-bound tree of exact 3x8 instance i
// (exactTree): status, nodes, simplex pivots and a hash of the bits of the
// objective and X.
func treePath(i int) (string, string, error) {
	name, sol, err := exactTree(i)
	if err != nil {
		return "", "", err
	}
	return name, fmt.Sprintf("%v nodes=%d lpiters=%d bits=%s",
		sol.Status, sol.Nodes, sol.LPIters, bitsHash(append([]float64{sol.Objective}, sol.X...)...)), nil
}

// TestPivotPathGolden pins the simplex's path, not only its answers: for
// the 300 relaxations of TestUpperBoundGolden (reduced, then solved cold,
// each answer certified by lp.Check) and the 200 trees of TestExactGolden
// (read from the same solve-once table), the pivot and refactorization
// counts, the node counts and the exact bits of every X and objective were
// captured into testdata/pivotpath.golden. A change to the kernel that is
// meant to make pivots cheaper, not different, must reproduce every line;
// a change that moves a pivot recaptures the file with -golden.update and
// says why. Under the race detector every tenth instance runs.
func TestPivotPathGolden(t *testing.T) {
	step := 1
	if raceEnabled && !*updateGolden {
		step = 10
	}
	got := make(map[string]string)
	var lines []string
	record := func(name, path string, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got[name] = path
		lines = append(lines, name+" "+path)
	}
	for i := 0; i < pathRelaxations; i += step {
		record(relaxationPath(i))
	}
	for i := 0; i < goldenInstances; i += step {
		record(treePath(i))
	}
	golden := filepath.Join("testdata", "pivotpath.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		name, want, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		path, ok := got[name]
		if !ok {
			continue
		}
		seen++
		if path != want {
			t.Errorf("%s: pivot path changed\n got: %s\nwant: %s", name, path, want)
		}
	}
	if seen != len(got) {
		t.Fatalf("golden file covers %d of %d instances", seen, len(got))
	}
}
