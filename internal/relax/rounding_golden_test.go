package relax

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"vmalloc/internal/core"
	"vmalloc/internal/testutil/grid"
	"vmalloc/internal/workload"
)

// roundingParks is how many 8x64 grid parks TestRoundingGolden rounds.
const roundingParks = 30

// roundingAttempts is the rounding budget of the golden and the allocation
// gate: the facade's (registry.go) cap on RRND and RRNZ retries.
const roundingAttempts = 20

// roundingLine renders one rounding outcome: whether it solved, the bits of
// its minimum yield, SHA-256 digests of its placement and of the bits of its
// per-service yields, and the next draw of rng — which pins how many draws
// the rounding consumed.
func roundingLine(res *core.Result, rng *rand.Rand) string {
	pl, ys := sha256.New(), sha256.New()
	for _, h := range res.Placement {
		_ = binary.Write(pl, binary.LittleEndian, int64(h))
	}
	for _, y := range res.Yields {
		_ = binary.Write(ys, binary.LittleEndian, math.Float64bits(y))
	}
	return fmt.Sprintf("solved=%t min=%s pl=%x yields=%x next=%d", res.Solved,
		strconv.FormatFloat(res.MinYield, 'g', -1, 64), pl.Sum(nil)[:8], ys.Sum(nil)[:8], rng.Int63())
}

// TestRoundingGolden pins RRND and RRNZ bit for bit: on roundingParks 8x64
// grid parks, each rounding of the park's relaxation with a fixed seed and
// roundingAttempts attempts must repeat testdata/rounding.golden — the same
// placement and yields from the same draws in the same order.
// -golden.update rewrites the file.
func TestRoundingGolden(t *testing.T) {
	step := 1
	if raceEnabled && !*updateGolden {
		step = 10
	}
	got := make(map[string]string)
	var lines []string
	for i := 0; i < roundingParks; i += step {
		scn := grid.Scenario(i)
		p := workload.Generate(scn)
		rel, err := SolveRelaxed(p)
		if err != nil {
			t.Fatalf("%s: %v", scn, err)
		}
		for _, alg := range []struct {
			name  string
			round func(*core.Problem, *Relaxed, int, *rand.Rand) *core.Result
		}{{"RRND", RRND}, {"RRNZ", RRNZ}} {
			rng := rand.New(rand.NewSource(scn.Seed))
			key := scn.String() + " " + alg.name
			got[key] = roundingLine(alg.round(p, rel, roundingAttempts, rng), rng)
			lines = append(lines, key+" "+got[key])
		}
	}
	golden := filepath.Join("testdata", "rounding.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -golden.update): %v", err)
	}
	seen := 0
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		f := strings.SplitN(line, " ", 3)
		if len(f) != 3 {
			t.Fatalf("malformed golden line %q", line)
		}
		g, ok := got[f[0]+" "+f[1]]
		if !ok {
			continue
		}
		seen++
		if g != f[2] {
			t.Errorf("%s %s:\n got %s\nwant %s", f[0], f[1], g, f[2])
		}
	}
	if seen != len(got) {
		t.Fatalf("golden covers %d of %d roundings", seen, len(got))
	}
}
