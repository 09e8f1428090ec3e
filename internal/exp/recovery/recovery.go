// Package recovery sweeps the durable tier's crash-recovery behavior. It
// lives beside internal/exp but in its own package: it drives the journaled
// store (internal/server), which builds on the public vmalloc API, and the
// root package's own benchmarks import internal/exp — keeping the durable
// sweep separate avoids that cycle.
package recovery

import (
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"vmalloc"
	"vmalloc/internal/journal"
	"vmalloc/internal/server"
	"vmalloc/internal/workload"
)

// Spec sweeps the durable tier's recovery behavior: for each (log
// length, snapshot interval) cell it drives a fixed-seed operation mix
// through a journaled store, kills it without a shutdown checkpoint, and
// measures how long reopening takes and how fast the WAL tail replays. It
// answers the operational question the durable tier raises: how does
// recovery time scale with write volume, and how much does checkpointing
// buy.
type Spec struct {
	// Hosts sizes the platform: HeteroBoth at COV 0.5, drawn from seed 1 like
	// the operation mix.
	Hosts int
	// Ops is the log-length axis: operations journaled before the kill.
	Ops []int
	// SnapshotEvery is the checkpoint-interval axis; use -1 for "never"
	// (recovery must replay the whole log).
	SnapshotEvery []int
}

// The platform's capacity spread and the seed of the platform and of the
// operation mix.
const (
	cov  = 0.5
	seed = 1
)

// Row is one (log length, snapshot interval) cell.
type Row struct {
	Ops           int
	SnapshotEvery int
	// Records is the number of journal records the run produced.
	Records uint64
	// Replayed is how many of them recovery had to re-apply.
	Replayed int
	// Services is the live-service count at the kill (sanity: recovered
	// stores must agree).
	Services int
	// RecoveryTime is the wall time of the post-kill Open.
	RecoveryTime time.Duration
	// ReplayPerSec is Replayed divided by the replay share of recovery;
	// 0 when nothing was replayed.
	ReplayPerSec float64
}

func (spec Spec) defaults() Spec {
	if spec.Hosts <= 0 {
		spec.Hosts = 8
	}
	if len(spec.Ops) == 0 {
		spec.Ops = []int{200, 1000}
	}
	if len(spec.SnapshotEvery) == 0 {
		spec.SnapshotEvery = []int{-1, 256}
	}
	return spec
}

// Run executes the sweep. Journal directories are created under
// os.MkdirTemp and removed afterwards.
func (spec Spec) Run() ([]Row, error) {
	spec = spec.defaults()
	nodes := workload.Platform(workload.Scenario{
		Hosts: spec.Hosts, COV: cov, Mode: workload.HeteroBoth, Seed: seed,
	}, workload.NewRand(seed))
	rows := make([]Row, 0, len(spec.Ops)*len(spec.SnapshotEvery))
	for _, ops := range spec.Ops {
		for _, every := range spec.SnapshotEvery {
			row, err := spec.runCell(nodes, ops, every)
			if err != nil {
				return nil, fmt.Errorf("recovery: ops=%d snap=%d: %w", ops, every, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func (spec Spec) runCell(nodes []vmalloc.Node, ops, every int) (Row, error) {
	row := Row{Ops: ops, SnapshotEvery: every}
	dir, err := os.MkdirTemp("", "vmalloc-recovery-")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(dir)
	opts := &server.Options{Fsync: journal.FsyncNone, SnapshotEvery: every}
	st, err := server.Open(dir, nodes, opts)
	if err != nil {
		return row, err
	}
	// The op stream depends only on the log-length axis, so the snapshot
	// intervals of one row recover the same trajectory and are comparable.
	rng := workload.NewRand(seed + int64(ops)*31)
	var live []int
	for i := 0; i < ops; i++ {
		switch k := rng.Intn(20); {
		case k < 10: // admission
			req := vmalloc.Of(0.02+0.05*rng.Float64(), 0.02+0.05*rng.Float64())
			need := vmalloc.Of(0.05+0.2*rng.Float64(), 0.02*rng.Float64())
			svc := vmalloc.Service{
				ReqElem: req.Clone(), ReqAgg: req.Clone(),
				NeedElem: need.Clone(), NeedAgg: need.Clone(),
			}
			if id, _, err := st.Add(svc); err == nil {
				live = append(live, id)
			} else if err != server.ErrRejected {
				return row, err
			}
		case k < 15: // departure
			if len(live) > 0 {
				idx := rng.Intn(len(live))
				if _, err := st.Remove(live[idx]); err != nil {
					return row, err
				}
				live = append(live[:idx], live[idx+1:]...)
			}
		case k < 18: // need update
			if len(live) > 0 {
				id := live[rng.Intn(len(live))]
				nv := vmalloc.Of(0.05+0.2*rng.Float64(), 0.02*rng.Float64())
				if err := st.UpdateNeeds(id, nv.Clone(), nv.Clone(), nv.Clone(), nv.Clone()); err != nil {
					return row, err
				}
			}
		default: // epoch
			if _, err := st.Reallocate(); err != nil {
				return row, err
			}
		}
	}
	stats := st.Stats()
	row.Records = stats.Records
	row.Services = stats.Services
	st.Kill() // no shutdown checkpoint: recovery must work for its state

	start := time.Now()
	st2, err := server.Open(dir, nil, opts)
	if err != nil {
		return row, err
	}
	row.RecoveryTime = time.Since(start)
	defer st2.Close()
	after := st2.Stats()
	row.Replayed = after.Replayed
	if after.Services != row.Services {
		return row, fmt.Errorf("recovered %d services, want %d", after.Services, row.Services)
	}
	if row.Replayed > 0 && row.RecoveryTime > 0 {
		row.ReplayPerSec = float64(row.Replayed) / row.RecoveryTime.Seconds()
	}
	return row, nil
}

// Table renders the sweep: recovery time and replay throughput
// against log length and snapshot interval.
func Table(rows []Row) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "ops\tsnap every\trecords\treplayed\tservices\trecovery\treplay rec/s")
	for _, r := range rows {
		every := fmt.Sprint(r.SnapshotEvery)
		if r.SnapshotEvery < 0 {
			every = "never"
		}
		perSec := "-"
		if r.ReplayPerSec > 0 {
			perSec = fmt.Sprintf("%.0f", r.ReplayPerSec)
		}
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%s\t%s\n",
			r.Ops, every, r.Records, r.Replayed, r.Services,
			r.RecoveryTime.Round(time.Microsecond), perSec)
	}
	w.Flush()
	return sb.String()
}
