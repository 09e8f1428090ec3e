package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vmalloc/internal/core"
	"vmalloc/internal/vec"
)

var updateGolden = flag.Bool("golden.update", false, "rewrite testdata/generate.golden from the current generator")

// fingerprint hashes every name and the IEEE bits of every float of p, in
// order, with the length of each string and vector in front of it.
func fingerprint(p *core.Problem) string {
	h := sha256.New()
	for _, n := range p.Nodes {
		hashString(h, n.Name)
		hashVecs(h, n.Elementary, n.Aggregate)
	}
	for _, s := range p.Services {
		hashString(h, s.Name)
		hashVecs(h, s.ReqElem, s.ReqAgg, s.NeedElem, s.NeedAgg)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func hashString(h hash.Hash, s string) {
	_ = binary.Write(h, binary.LittleEndian, uint64(len(s)))
	h.Write([]byte(s))
}

func hashVecs(h hash.Hash, vs ...vec.Vec) {
	for _, v := range vs {
		_ = binary.Write(h, binary.LittleEndian, uint64(len(v)))
		for _, x := range v {
			_ = binary.Write(h, binary.LittleEndian, math.Float64bits(x))
		}
	}
}

// TestGeneratorFingerprint pins every generated bit: the SHA-256 of each
// instance of a grid over size, platform heterogeneity, heterogeneity mode
// and seed, plus the §6.2 estimate PerturbCPUNeeds derives from it, must
// repeat testdata/generate.golden exactly. -golden.update rewrites the file;
// a change meant to keep the generator's output must pass without it.
func TestGeneratorFingerprint(t *testing.T) {
	var lines []string
	for _, size := range [][2]int{{3, 8}, {8, 64}, {64, 512}} {
		for _, cov := range []float64{0, 0.5, 1} {
			for _, mode := range []HeterogeneityMode{HeteroBoth, HeteroCPUHomogeneous, HeteroMemHomogeneous} {
				for seed := int64(1); seed <= 3; seed++ {
					scn := Scenario{Hosts: size[0], Services: size[1], COV: cov, Slack: 0.5, Mode: mode, Seed: seed}
					p := Generate(scn)
					est := PerturbCPUNeeds(p, 0.3, rand.New(rand.NewSource(seed)))
					lines = append(lines, fmt.Sprintf("%s %s %s", scn, fingerprint(p), fingerprint(est)))
				}
			}
		}
	}
	golden := filepath.Join("testdata", "generate.golden")
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -golden.update): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("golden has %d instances, the grid %d", len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("instance %d:\n got %s\nwant %s", i, lines[i], want[i])
		}
	}
}
