// Durability: the crash/restart walkthrough of the durable tier. A
// journaled cluster admits services and runs reallocation epochs; the
// process then "crashes" — no shutdown checkpoint, a torn record on the WAL
// tail — and a second store recovers the exact pre-crash state from
// snapshot + tail replay before carrying on.
//
// What to look for in the output:
//
//   - every mutation is durable when the call returns (group-committed
//     fsync), so the kill loses nothing that was acknowledged;
//   - the torn tail (a record half-written at the kill) is detected by its
//     CRC and truncated, not treated as corruption;
//   - the recovered state is bit-identical: same services, same placements,
//     same incremental load floats — the replay re-applies recorded
//     decisions, it does not re-run the solver.
package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"vmalloc"
	"vmalloc/internal/server"
	"vmalloc/internal/workload"
)

func main() {
	dir, err := os.MkdirTemp("", "vmalloc-durability-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	nodes := workload.Platform(workload.Scenario{
		Hosts: 8, COV: 0.5, Mode: workload.HeteroBoth, Seed: 7,
	}, rand.New(rand.NewSource(7)))

	// Phase 1: a journaled store takes traffic. SnapshotEvery is set low so
	// the walkthrough also exercises checkpoint compaction.
	st, err := server.Open(dir, nodes, &server.Options{SnapshotEvery: 16})
	if err != nil {
		fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	var live []int
	for i := 0; i < 40; i++ {
		req := vmalloc.Of(0.02+0.05*rng.Float64(), 0.02+0.05*rng.Float64())
		need := vmalloc.Of(0.05+0.2*rng.Float64(), 0.02*rng.Float64())
		svc := vmalloc.Service{
			ReqElem: req.Clone(), ReqAgg: req.Clone(),
			NeedElem: need.Clone(), NeedAgg: need.Clone(),
		}
		if id, _, err := st.Add(svc); err == nil {
			live = append(live, id)
		}
		if i%10 == 9 {
			if _, err := st.Reallocate(); err != nil {
				fatal(err)
			}
		}
	}
	stats := st.Stats()
	_, before, err := st.State()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("before the crash: %d live services, %d journaled records, %d checkpoints, min yield %.4f\n",
		stats.Services, stats.Records, stats.Snapshots, stats.LastMinYield)

	// Phase 2: kill the process. No shutdown checkpoint — and to make it
	// ugly, a half-written record lands on the WAL tail, exactly what a
	// power cut mid-append leaves behind.
	st.Kill()
	if err := tearTail(server.ShardDir(dir, 0)); err != nil {
		fatal(err)
	}
	fmt.Println("crashed: journal abandoned with a torn record on the tail")

	// Phase 3: recover. The platform, services, placements and threshold
	// all come from the journal directory; nothing else is needed.
	st2, err := server.Open(dir, nil, &server.Options{SnapshotEvery: 16})
	if err != nil {
		fatal(err)
	}
	defer st2.Close()
	rstats := st2.Stats()
	_, after, err := st2.State()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("recovered: %d services via snapshot seq %d + %d replayed records (%d torn bytes truncated)\n",
		rstats.Services, rstats.SnapshotSeq, rstats.Replayed, rstats.TruncatedBytes)
	if bytes.Equal(before, after) {
		fmt.Println("state check: recovered state is bit-identical to the pre-crash state")
	} else {
		fmt.Println("state check: DIVERGED (this is a bug)")
	}

	// Phase 4: the recovered store keeps serving — run another epoch and
	// depart a service, all journaled again.
	if ep, err := st2.Reallocate(); err == nil && ep.Result.Solved {
		fmt.Printf("post-recovery epoch: min yield %.4f, %d migrations\n",
			ep.Result.MinYield, ep.Migrations)
	}
	if len(live) > 0 {
		if _, err := st2.Remove(live[0]); err != nil {
			fatal(err)
		}
		fmt.Printf("post-recovery departure: service %d removed, %d live\n",
			live[0], st2.Stats().Services)
	}
}

// tearTail appends half a record frame to the newest WAL segment.
func tearTail(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	last := ""
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && e.Name() > last {
			last = e.Name()
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, last), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write([]byte{0x30, 0x00, 0x00, 0x00, 0x11, 0x22, 0x33})
	return err
}

// fatal reports err on stderr and exits nonzero; examples avoid the global
// log package, which the slogonly analyzer confines to cmd/.
func fatal(v any) {
	fmt.Fprintln(os.Stderr, v)
	os.Exit(1)
}
