package obs

import (
	"sync"
	"time"
)

// SolverStats aggregates the cheap per-solve counters of the epoch's solver,
// the vector-packing meta-heuristic, over one epoch (or one shard's slice of
// one). Counters are plain ints: each solver instance is single-threaded, and
// cross-shard aggregation happens after the scatter-gather join.
type SolverStats struct {
	VPPacks       int64 `json:"vp_packs"`
	VPPacksSolved int64 `json:"vp_packs_solved"`
	VPStepsPruned int64 `json:"vp_steps_pruned"`
}

// Add accumulates o into s.
func (s *SolverStats) Add(o SolverStats) {
	s.VPPacks += o.VPPacks
	s.VPPacksSolved += o.VPPacksSolved
	s.VPStepsPruned += o.VPStepsPruned
}

// ShardEpoch is one placement domain's slice of an epoch: outcome, solve
// wall time and the solver counters that produced it.
type ShardEpoch struct {
	Shard      int         `json:"shard"`
	Solved     bool        `json:"solved"`
	MinYield   float64     `json:"min_yield"`
	Services   int         `json:"services"`
	Migrations int         `json:"migrations"`
	SolveNs    int64       `json:"solve_ns"`
	Solver     SolverStats `json:"solver"`
}

// EpochStats is the observability payload of one epoch: total solve time,
// park-wide solver counters, and (for sharded clusters) the per-shard
// breakdown.
type EpochStats struct {
	SolveNs int64        `json:"solve_ns"`
	Solver  SolverStats  `json:"solver"`
	Shards  []ShardEpoch `json:"shards,omitempty"`
}

// EpochRecord is one epoch as retained by the server's ring: the
// EpochStats plus commit-pipeline phase timing and the trace it ran under.
type EpochRecord struct {
	Seq         uint64       `json:"seq"`
	TraceID     string       `json:"trace_id,omitempty"`
	Start       time.Time    `json:"start"`
	Repair      bool         `json:"repair"`
	Budget      int          `json:"budget,omitempty"`
	Solved      bool         `json:"solved"`
	MinYield    float64      `json:"min_yield"`
	Services    int          `json:"services"`
	Migrations  int          `json:"migrations"`
	TotalNs     int64        `json:"total_ns"`
	SolveNs     int64        `json:"solve_ns"`
	FsyncWaitNs int64        `json:"fsync_wait_ns"`
	Solver      SolverStats  `json:"solver"`
	Shards      []ShardEpoch `json:"shards,omitempty"`
}

// EpochTotals are the cumulative counters over every epoch ever recorded,
// exported as /metrics counter families.
type EpochTotals struct {
	Epochs       uint64      `json:"epochs"`
	FailedEpochs uint64      `json:"failed_epochs"`
	TotalNs      int64       `json:"total_ns"`
	SolveNs      int64       `json:"solve_ns"`
	FsyncWaitNs  int64       `json:"fsync_wait_ns"`
	Solver       SolverStats `json:"solver"`
}

// EpochRing retains the last N epoch records plus cumulative totals. A nil
// *EpochRing is a valid no-op handle. Safe for concurrent use.
type EpochRing struct {
	mu     sync.Mutex
	buf    []EpochRecord
	seq    uint64
	totals EpochTotals
}

// DefaultEpochRing is the epoch-ring capacity NewEpochRing uses for
// size <= 0.
const DefaultEpochRing = 128

// NewEpochRing returns a ring retaining the last size epochs.
func NewEpochRing(size int) *EpochRing {
	if size <= 0 {
		size = DefaultEpochRing
	}
	return &EpochRing{buf: make([]EpochRecord, size)}
}

// Add stamps rec with the next sequence number and retains it.
func (r *EpochRing) Add(rec EpochRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.seq++
	rec.Seq = r.seq
	r.buf[(r.seq-1)%uint64(len(r.buf))] = rec
	r.totals.Epochs++
	if !rec.Solved {
		r.totals.FailedEpochs++
	}
	r.totals.TotalNs += rec.TotalNs
	r.totals.SolveNs += rec.SolveNs
	r.totals.FsyncWaitNs += rec.FsyncWaitNs
	r.totals.Solver.Add(rec.Solver)
	r.mu.Unlock()
}

// Snapshot returns up to limit retained records, newest first (limit <= 0
// means everything retained).
func (r *EpochRing) Snapshot(limit int) []EpochRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := int(r.seq)
	if n > len(r.buf) {
		n = len(r.buf)
	}
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]EpochRecord, n)
	for i := 0; i < n; i++ {
		out[i] = r.buf[(r.seq-1-uint64(i))%uint64(len(r.buf))]
	}
	return out
}

// Totals returns the cumulative counters over every recorded epoch.
func (r *EpochRing) Totals() EpochTotals {
	if r == nil {
		return EpochTotals{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.totals
}

// Observer bundles the two retained-telemetry surfaces a store or handler
// needs. A nil *Observer (or any nil field) is fully functional as a
// no-op.
type Observer struct {
	Tracer *Tracer
	Epochs *EpochRing
}

// TracerOf returns o.Tracer, tolerating a nil receiver.
func (o *Observer) TracerOf() *Tracer {
	if o == nil {
		return nil
	}
	return o.Tracer
}

// EpochsOf returns o.Epochs, tolerating a nil receiver.
func (o *Observer) EpochsOf() *EpochRing {
	if o == nil {
		return nil
	}
	return o.Epochs
}
