package platform

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vmalloc/internal/core"
	"vmalloc/internal/workload"
)

// arrivalPrefix is how many arrivals of each stream TestArrivalStreamGolden
// hashes.
const arrivalPrefix = 2000

// TestArrivalStreamGolden pins the simulator's arrival stream bit for bit:
// for a few seeds and estimation errors, the SHA-256 over the first
// arrivalPrefix (true service, estimate, departure time) triples — every
// name and the IEEE bits of every float — must repeat
// testdata/arrivals.golden. It also checks that an arrival's estimate is
// detached from its true service. -golden.update rewrites the file.
func TestArrivalStreamGolden(t *testing.T) {
	var lines []string
	for _, maxErr := range []float64{0, 0.2} {
		for seed := int64(1); seed <= 3; seed++ {
			s := &sim{cfg: Config{
				Google: workload.DefaultGoogle(), MeanCPUNeed: 0.05, MaxErr: maxErr,
			}, rng: rand.New(rand.NewSource(seed))}
			h := sha256.New()
			put := func(x uint64) { _ = binary.Write(h, binary.LittleEndian, x) }
			for i := 0; i < arrivalPrefix; i++ {
				trueSvc, estSvc, departAt := s.newService()
				for _, svc := range []core.Service{trueSvc, estSvc} {
					put(uint64(len(svc.Name)))
					h.Write([]byte(svc.Name))
					for _, v := range [][]float64{svc.ReqElem, svc.ReqAgg, svc.NeedElem, svc.NeedAgg} {
						put(uint64(len(v)))
						for _, x := range v {
							put(math.Float64bits(x))
						}
					}
				}
				put(math.Float64bits(departAt))
				estSvc.NeedAgg[workload.CPU] = -1
				if trueSvc.NeedAgg[workload.CPU] == -1 {
					t.Fatalf("seed %d arrival %d: the estimate shares the true service's need vector", seed, i)
				}
			}
			lines = append(lines, fmt.Sprintf("seed%d/maxerr%g %x", seed, maxErr, h.Sum(nil)))
		}
	}
	golden := filepath.Join("testdata", "arrivals.golden")
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -golden.update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("arrival stream diverged:\n got\n%s want\n%s", got, want)
	}
}
