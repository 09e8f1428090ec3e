package relax

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"vmalloc/internal/testutil/grid"
	"vmalloc/internal/workload"
)

var updateGolden = flag.Bool("golden.update", false, "rewrite testdata/upperbound.golden from the current solver")

const goldenBounds = 300

// TestUpperBoundFormerIterLimit pins an 8x64 instance (drawn by the solve-lp
// benchmark) whose bound used to fail with lp.ErrIterLimit: a
// refactorization on its pivot path found the basis singular and the solver
// gave up. Refactorizing on eta fill moved the path off that basis, and a
// singular basis is now repaired (TestRefactorizeRepairsSingularBasis in
// internal/lp) instead of ending the solve.
func TestUpperBoundFormerIterLimit(t *testing.T) {
	scn := workload.Scenario{Hosts: 8, Services: 64, COV: 1, Slack: 0.5, Seed: 4699135230517246732}
	y, err := UpperBound(workload.Generate(scn))
	if err != nil {
		t.Fatalf("%s: %v", scn, err)
	}
	if math.Abs(y-0.451070263334) > 1e-9 {
		t.Fatalf("%s: UpperBound %.12f, want 0.451070263334", scn, y)
	}
}

// TestUpperBoundGolden pins LPBOUND across simplex changes: UpperBound of 300
// paper-scale relaxations was captured into testdata/upperbound.golden and
// must be reproduced to 1e-9 relative (-1 for an infeasible relaxation, and
// no solve may fail). The optimal vertex may move among alternative optima;
// the bound may not. Under the race detector every tenth instance runs.
func TestUpperBoundGolden(t *testing.T) {
	step := 1
	if raceEnabled && !*updateGolden {
		step = 10
	}
	got := make(map[string]float64)
	var lines []string
	for i := 0; i < goldenBounds; i += step {
		scn := grid.Scenario(i)
		y, err := UpperBound(workload.Generate(scn))
		if err != nil {
			t.Fatalf("%s: %v", scn, err)
		}
		got[scn.String()] = y
		lines = append(lines, fmt.Sprintf("%s %s", scn, strconv.FormatFloat(y, 'g', -1, 64)))
	}
	golden := filepath.Join("testdata", "upperbound.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		f := strings.Fields(line)
		want, err := strconv.ParseFloat(f[len(f)-1], 64)
		if len(f) != 2 || err != nil {
			t.Fatalf("malformed golden line %q", line)
		}
		y, ok := got[f[0]]
		if !ok {
			continue
		}
		seen++
		if math.Abs(y-want) > 1e-9*(1+math.Abs(want)) {
			t.Errorf("%s: UpperBound %.17g, golden %.17g", f[0], y, want)
		}
	}
	if seen != len(got) {
		t.Fatalf("golden file covers %d of %d instances", seen, len(got))
	}
}
