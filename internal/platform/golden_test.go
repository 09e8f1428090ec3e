package platform

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"vmalloc/internal/core"
	"vmalloc/internal/workload"
)

// The golden-trajectory harness pins the simulator's observable behavior
// bit-for-bit: for a fixed seed, the full Stats (counters and every Sample
// field, floats compared exactly) must not change across refactors of the
// epoch hot path. The files under testdata were generated from the
// rebuild-per-epoch simulator that predates the persistent engine; run with
//
//	go test ./internal/platform -run TestGoldenTrajectories -golden.update
//
// to regenerate them after an intentional behavior change.
var updateGolden = flag.Bool("golden.update", false, "rewrite golden trajectory files")

// goldenNodes is the acceptance-criteria platform: 16 heterogeneous hosts.
func goldenNodes() []core.Node {
	return workload.Platform(workload.Scenario{
		Hosts: 16, COV: 0.5, Mode: workload.HeteroBoth, Seed: 1,
	}, rand.New(rand.NewSource(1)))
}

// goldenConfigs enumerates the pinned trajectories. "steady" is the
// acceptance-criteria scale (16 hosts, arrival rate 8, horizon 200) with
// noisy estimates and the adaptive threshold controller; "clean" exercises
// the error-free full-reallocation path; "repair" the migration-bounded
// incremental path with a static threshold.
func goldenConfigs() map[string]Config {
	nodes := goldenNodes()
	return map[string]Config{
		"steady": {
			Nodes: nodes, ArrivalRate: 8, MeanLifetime: 10, Horizon: 200,
			Epoch: 5, MaxErr: 0.2, Threshold: AdaptiveThreshold, Seed: 1,
		},
		"clean": {
			Nodes: nodes, ArrivalRate: 8, MeanLifetime: 10, Horizon: 60,
			Epoch: 5, Seed: 7,
		},
		"repair": {
			Nodes: nodes, ArrivalRate: 8, MeanLifetime: 10, Horizon: 60,
			Epoch: 5, MaxErr: 0.1, Threshold: 0.05,
			UseRepair: true, MigrationBudget: 3, Seed: 3,
		},
	}
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden_"+name+".json")
}

// runGoldenConfig runs cfg with GOMAXPROCS set to procs. The platform's one
// engine races the reallocation roster on engine.DomainWorkers(1) =
// GOMAXPROCS workers, so procs 1 is the sequential sweep and more is the
// multi-worker race.
func runGoldenConfig(t *testing.T, cfg Config, procs int) *Stats {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	st, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func readGolden(t *testing.T, name string) *Stats {
	t.Helper()
	data, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("missing golden file (run with -golden.update): %v", err)
	}
	var want Stats
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return &want
}

// compareStats asserts exact equality, floats included: encoding/json emits
// the shortest round-trip representation of a float64, so unmarshalled golden
// values are bitwise-comparable to freshly computed ones.
func compareStats(t *testing.T, name string, got, want *Stats) {
	t.Helper()
	if got.Arrivals != want.Arrivals || got.Rejections != want.Rejections ||
		got.Departures != want.Departures || got.Migrations != want.Migrations ||
		got.Reallocs != want.Reallocs || got.FailedEpoch != want.FailedEpoch {
		t.Fatalf("%s: counters diverged:\n got  %+v\n want %+v",
			name, statsHeader(got), statsHeader(want))
	}
	if len(got.Samples) != len(want.Samples) {
		t.Fatalf("%s: %d samples, want %d", name, len(got.Samples), len(want.Samples))
	}
	for i := range got.Samples {
		if got.Samples[i] != want.Samples[i] {
			t.Fatalf("%s: sample %d diverged:\n got  %+v\n want %+v",
				name, i, got.Samples[i], want.Samples[i])
		}
	}
}

func statsHeader(st *Stats) Stats {
	h := *st
	h.Samples = nil
	return h
}

// TestGoldenTrajectories replays every golden config at GOMAXPROCS 1, the
// sequential sweep, and rewrites the files under -golden.update.
func TestGoldenTrajectories(t *testing.T) {
	for name, cfg := range goldenConfigs() {
		t.Run(name, func(t *testing.T) {
			st := runGoldenConfig(t, cfg, 1)
			path := goldenPath(name)
			if *updateGolden {
				data, err := json.MarshalIndent(st, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d samples)", path, len(st.Samples))
				return
			}
			compareStats(t, name, st, readGolden(t, name))
		})
	}
}

// TestGoldenTrajectoriesParallel replays the full-reallocation golden
// configs at GOMAXPROCS 4: four workers race the roster, and the
// lowest-index-success reduction must reproduce the same files. "repair" is
// excluded — repair epochs run through opt.Repair and never reach the
// roster — and -short skips the long "steady" run.
func TestGoldenTrajectoriesParallel(t *testing.T) {
	for _, name := range []string{"clean", "steady"} {
		t.Run(name, func(t *testing.T) {
			if name == "steady" && testing.Short() {
				t.Skip("steady trajectory skipped in -short mode")
			}
			compareStats(t, name, runGoldenConfig(t, goldenConfigs()[name], 4), readGolden(t, name))
		})
	}
}
