package vmalloc

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("golden.update", false, "rewrite testdata/lpbound_epochs.golden from the current solver")

// lpBoundEpochs is how many churned epochs TestLPBoundEpochGolden pins.
const lpBoundEpochs = 25

// TestLPBoundEpochGolden pins what the LP-bracketed engine decides across
// churn: the 16-host steady-state cluster with UseLPBound runs 25 epochs,
// each after four departures and four arrivals, and every epoch's min-yield
// bits and a hash of its placement must match testdata/lpbound_epochs.golden
// exactly. The relaxation feeds only the yield search's bracket, so a change
// to the LP path that keeps every bound's bits keeps this file;
// -golden.update rewrites it, and only a solver known to answer right may.
func TestLPBoundEpochGolden(t *testing.T) {
	c, rng, ids := steadyCluster(t, &ClusterOptions{UseLPBound: true})
	meanNeed := 0.7 * 16.0 / 80
	var lines []string
	var lpSolves int64
	for epoch := 0; epoch < lpBoundEpochs; epoch++ {
		ids = churnCluster(t, c, rng, ids, 4, meanNeed)
		ep := c.Reallocate()
		lpSolves += ep.Stats.Solver.LPSolves
		h := sha256.New()
		for i, id := range ep.IDs {
			node := -1
			if ep.Result.Solved {
				node = ep.Result.Placement[i]
			}
			binary.Write(h, binary.LittleEndian, [2]int64{int64(id), int64(node)})
		}
		lines = append(lines, fmt.Sprintf("epoch=%02d services=%d solved=%v min_yield=%016x placement=%x",
			epoch, len(ep.IDs), ep.Result.Solved, math.Float64bits(ep.Result.MinYield), h.Sum(nil)[:12]))
	}
	if lpSolves == 0 {
		t.Fatal("no epoch solved a relaxation: the LP bound went unexercised")
	}
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", "lpbound_epochs.golden")
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
		t.Fatalf("missing golden file (run with -golden.update): %v", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for i, line := range lines {
		if i >= len(wantLines) || line != wantLines[i] {
			w := "<missing>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Fatalf("epoch %d diverged from the golden capture\n got: %s\nwant: %s", i, line, w)
		}
	}
	if len(wantLines) != len(lines) {
		t.Fatalf("golden file has %d epochs, the run produced %d", len(wantLines), len(lines))
	}
}
