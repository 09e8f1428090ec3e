package server

import (
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"vmalloc"
	"vmalloc/internal/journal"
	"vmalloc/internal/metrics"
	"vmalloc/internal/obs"
)

// Metrics instruments the HTTP surface and exposes store, shard and journal
// state in the Prometheus text format on GET /metrics.
type Metrics struct {
	reg  *metrics.Registry
	reqs *metrics.CounterVec
	lat  *metrics.HistogramVec
}

// NewMetrics builds the metric registry over a store: per-endpoint request
// counters and latency histograms, plus scrape-time collectors over
// s.Stats(), per-shard statistics and journal I/O counters. A non-nil
// observer adds Go runtime gauges, build info, cumulative epoch phase
// timing and the solver-tier work counters aggregated from the epoch ring,
// and the count of traces started.
func NewMetrics(s API, o *obs.Observer) *Metrics {
	reg := metrics.NewRegistry()
	m := &Metrics{reg: reg}
	m.reqs = reg.NewCounterVec("vmallocd_http_requests_total",
		"HTTP requests served, by method, route pattern and status code.")
	m.lat = reg.NewHistogramVec("vmallocd_http_request_seconds",
		"HTTP request latency in seconds, by method and route pattern.",
		metrics.ExpBuckets(0.0001, 2, 16))

	gauge := func(name, help string, f func(st Stats) float64) {
		reg.Collect(name, help, "gauge", func(emit func(metrics.Labels, float64)) {
			emit(nil, f(s.Stats()))
		})
	}
	counter := func(name, help string, f func(st Stats) float64) {
		reg.Collect(name, help, "counter", func(emit func(metrics.Labels, float64)) {
			emit(nil, f(s.Stats()))
		})
	}
	gauge("vmallocd_services", "Live services currently placed.",
		func(st Stats) float64 { return float64(st.Services) })
	gauge("vmallocd_threshold", "Resource-pressure mitigation threshold.",
		func(st Stats) float64 { return st.Threshold })
	gauge("vmallocd_last_min_yield", "Minimum yield of the last solved epoch.",
		func(st Stats) float64 { return st.LastMinYield })
	reg.Collect("vmallocd_admissions_total",
		"Admission requests by result.", "counter",
		func(emit func(metrics.Labels, float64)) {
			st := s.Stats()
			emit(metrics.L("result", "admitted"), float64(st.Adds))
			emit(metrics.L("result", "rejected"), float64(st.Rejected))
		})
	counter("vmallocd_admission_batches_total", "Bulk admission batches committed.",
		func(st Stats) float64 { return float64(st.Batches) })
	counter("vmallocd_removes_total", "Service departures.",
		func(st Stats) float64 { return float64(st.Removes) })
	counter("vmallocd_need_updates_total", "Fluid-need replacements.",
		func(st Stats) float64 { return float64(st.NeedUpdates) })
	counter("vmallocd_epochs_total", "Reallocation epochs run.",
		func(st Stats) float64 { return float64(st.Epochs) })
	counter("vmallocd_failed_epochs_total", "Reallocation epochs that failed to solve.",
		func(st Stats) float64 { return float64(st.FailedEpochs) })
	counter("vmallocd_migrations_total", "Service migrations applied by epochs.",
		func(st Stats) float64 { return float64(st.Migrations) })
	counter("vmallocd_journal_records_total", "Records appended to the journal.",
		func(st Stats) float64 { return float64(st.Records) })
	counter("vmallocd_snapshots_total", "Checkpoints written.",
		func(st Stats) float64 { return float64(st.Snapshots) })
	gauge("vmallocd_journal_last_seq", "Sequence number of the newest journal record.",
		func(st Stats) float64 { return float64(st.LastSeq) })
	gauge("vmallocd_snapshot_seq", "Sequence number covered by the newest snapshot.",
		func(st Stats) float64 { return float64(st.SnapshotSeq) })

	reg.Collect("vmallocd_journal_fsyncs_total",
		"Fsync barriers issued by the journal committer; records divided by "+
			"fsyncs is the group-commit amortization factor.", "counter",
		func(emit func(metrics.Labels, float64)) {
			emit(nil, float64(s.JournalIOStats().Fsyncs))
		})
	reg.Collect("vmallocd_journal_rotations_total",
		"Journal segment rotations.", "counter",
		func(emit func(metrics.Labels, float64)) {
			emit(nil, float64(s.JournalIOStats().Rotations))
		})
	bounds := make([]float64, len(journal.BatchSizeBounds))
	for i, b := range journal.BatchSizeBounds {
		bounds[i] = float64(b)
	}
	reg.CollectHistogram("vmallocd_journal_commit_records",
		"Records per journal commit batch (one write, at most one fsync).",
		func() metrics.HistogramSnapshot {
			io := s.JournalIOStats()
			cum := make([]uint64, len(bounds))
			run := uint64(0)
			for i := range bounds {
				run += io.BatchSizes[i]
				cum[i] = run
			}
			return metrics.HistogramSnapshot{
				Bounds: bounds, CumCounts: cum,
				Count: io.Batches, Sum: float64(io.Records),
			}
		})

	reg.Collect("vmallocd_replication_committed_seq",
		"Leader-side committed (acked-durable) sequence per shard journal.", "gauge",
		func(emit func(metrics.Labels, float64)) {
			cs, err := s.ChainStatus()
			if err != nil {
				return
			}
			for _, c := range cs {
				emit(metrics.L("shard", strconv.Itoa(c.Shard)), float64(c.CommittedSeq))
			}
		})
	if f, ok := s.(follower); ok {
		reg.Collect("vmallocd_replication_applied_seq",
			"Follower-side applied-durable sequence per shard journal.", "gauge",
			func(emit func(metrics.Labels, float64)) {
				for _, sh := range f.ReplicationStatus().Shards {
					emit(metrics.L("shard", strconv.Itoa(sh.Shard)), float64(sh.AppliedSeq))
				}
			})
		reg.Collect("vmallocd_replication_lag_records",
			"Follower lag behind the leader's committed seq, per shard, at the last poll.", "gauge",
			func(emit func(metrics.Labels, float64)) {
				for _, sh := range f.ReplicationStatus().Shards {
					emit(metrics.L("shard", strconv.Itoa(sh.Shard)), float64(sh.Lag))
				}
			})
		reg.Collect("vmallocd_replication_bytes_behind",
			"Estimated backlog still to pull per shard: record lag times the "+
				"mean applied record size.", "gauge",
			func(emit func(metrics.Labels, float64)) {
				for _, sh := range f.ReplicationStatus().Shards {
					emit(metrics.L("shard", strconv.Itoa(sh.Shard)), float64(sh.BytesBehind))
				}
			})
		reg.Collect("vmallocd_replication_last_applied_age_seconds",
			"Seconds since the newest record applied to each shard.", "gauge",
			func(emit func(metrics.Labels, float64)) {
				for _, sh := range f.ReplicationStatus().Shards {
					emit(metrics.L("shard", strconv.Itoa(sh.Shard)), sh.SecondsSinceApplied)
				}
			})
		reg.Collect("vmallocd_replication_batches_total",
			"Stream batches applied by the follower.", "counter",
			func(emit func(metrics.Labels, float64)) {
				emit(nil, float64(f.ReplicationStatus().Batches))
			})
		reg.Collect("vmallocd_replication_records_total",
			"Records applied by the follower.", "counter",
			func(emit func(metrics.Labels, float64)) {
				emit(nil, float64(f.ReplicationStatus().Records))
			})
		reg.Collect("vmallocd_replication_retries_total",
			"Transient pull failures retried by the replication client.", "counter",
			func(emit func(metrics.Labels, float64)) {
				emit(nil, float64(f.ReplicationStatus().Retries))
			})
		reg.Collect("vmallocd_replication_promoted",
			"1 once this process has been promoted to leader, else 0.", "gauge",
			func(emit func(metrics.Labels, float64)) {
				v := 0.0
				if f.ReplicationStatus().Promoted {
					v = 1
				}
				emit(nil, v)
			})
	}

	shardGauge := func(name, help string, f func(st vmalloc.ShardStat) (float64, bool)) {
		reg.Collect(name, help, "gauge", func(emit func(metrics.Labels, float64)) {
			stats, err := s.ShardStats()
			if err != nil {
				return
			}
			for _, st := range stats {
				if v, ok := f(st); ok {
					emit(metrics.L("shard", strconv.Itoa(st.Shard)), v)
				}
			}
		})
	}
	shardGauge("vmallocd_shard_services", "Live services per placement domain.",
		func(st vmalloc.ShardStat) (float64, bool) { return float64(st.Services), true })
	shardGauge("vmallocd_shard_headroom", "Admission headroom per placement domain.",
		func(st vmalloc.ShardStat) (float64, bool) { return st.Headroom, true })
	shardGauge("vmallocd_shard_min_yield",
		"Minimum yield of the shard's last solved epoch (absent before any).",
		func(st vmalloc.ShardStat) (float64, bool) { return st.LastMinYield, st.YieldValid })
	reg.Collect("vmallocd_shard_epochs_total",
		"Per-shard reallocation epochs by result.", "counter",
		func(emit func(metrics.Labels, float64)) {
			stats, err := s.ShardStats()
			if err != nil {
				return
			}
			for _, st := range stats {
				sh := strconv.Itoa(st.Shard)
				emit(metrics.L("shard", sh, "result", "solved"), float64(st.Epochs-st.FailedEpochs))
				emit(metrics.L("shard", sh, "result", "failed"), float64(st.FailedEpochs))
			}
		})
	reg.Collect("vmallocd_shard_moves_total",
		"Cross-shard rebalance migrations by direction.", "counter",
		func(emit func(metrics.Labels, float64)) {
			stats, err := s.ShardStats()
			if err != nil {
				return
			}
			for _, st := range stats {
				sh := strconv.Itoa(st.Shard)
				emit(metrics.L("shard", sh, "direction", "in"), float64(st.MovedIn))
				emit(metrics.L("shard", sh, "direction", "out"), float64(st.MovedOut))
			}
		})

	registerRuntimeMetrics(reg)
	registerObserverMetrics(reg, o)
	return m
}

// registerRuntimeMetrics exports process-level Go runtime state and the
// build identity.
func registerRuntimeMetrics(reg *metrics.Registry) {
	version := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	goVersion := runtime.Version()
	reg.Collect("vmalloc_build_info",
		"Build identity; the value is always 1.", "gauge",
		func(emit func(metrics.Labels, float64)) {
			emit(metrics.L("version", version, "go_version", goVersion), 1)
		})
	reg.Collect("vmallocd_goroutines",
		"Live goroutines.", "gauge",
		func(emit func(metrics.Labels, float64)) {
			emit(nil, float64(runtime.NumGoroutine()))
		})
	reg.Collect("vmallocd_heap_alloc_bytes",
		"Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).", "gauge",
		func(emit func(metrics.Labels, float64)) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			emit(nil, float64(ms.HeapAlloc))
		})
	reg.Collect("vmallocd_gc_cycles_total",
		"Completed GC cycles.", "counter",
		func(emit func(metrics.Labels, float64)) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			emit(nil, float64(ms.NumGC))
		})
	reg.Collect("vmallocd_gc_pause_seconds_total",
		"Cumulative GC stop-the-world pause time.", "counter",
		func(emit func(metrics.Labels, float64)) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			emit(nil, float64(ms.PauseTotalNs)/1e9)
		})
}

// registerObserverMetrics exports the observer's retained telemetry as
// cumulative families: epoch phase timing and the solver tier's work
// counters (aggregated over every epoch ever run), plus trace volume.
func registerObserverMetrics(reg *metrics.Registry, o *obs.Observer) {
	ring := o.EpochsOf()
	if ring != nil {
		reg.Collect("vmallocd_epoch_wall_seconds_total",
			"Wall time spent inside epoch requests (apply + solve + fsync wait).", "counter",
			func(emit func(metrics.Labels, float64)) {
				emit(nil, float64(ring.Totals().TotalNs)/1e9)
			})
		reg.Collect("vmallocd_epoch_solve_seconds_total",
			"Wall time spent in the solver tier across epochs.", "counter",
			func(emit func(metrics.Labels, float64)) {
				emit(nil, float64(ring.Totals().SolveNs)/1e9)
			})
		reg.Collect("vmallocd_epoch_fsync_wait_seconds_total",
			"Wall time epochs spent waiting on journal durability.", "counter",
			func(emit func(metrics.Labels, float64)) {
				emit(nil, float64(ring.Totals().FsyncWaitNs)/1e9)
			})
		reg.Collect("vmallocd_solver_work_total",
			"Solver-tier work counters summed over every epoch, by kind: vector-packing "+
				"attempts, successes and pruned steps.", "counter",
			func(emit func(metrics.Labels, float64)) {
				sv := ring.Totals().Solver
				for _, kv := range []struct {
					kind string
					v    int64
				}{
					{"vp_packs", sv.VPPacks},
					{"vp_packs_solved", sv.VPPacksSolved},
					{"vp_steps_pruned", sv.VPStepsPruned},
				} {
					emit(metrics.L("kind", kv.kind), float64(kv.v))
				}
			})
	}
	if t := o.TracerOf(); t != nil {
		reg.Collect("vmallocd_traces_started_total",
			"Request traces started (excludes requests with tracing disabled).", "counter",
			func(emit func(metrics.Labels, float64)) {
				emit(nil, float64(t.Started()))
			})
	}
}

// serveText renders the registry as Prometheus text exposition 0.0.4.
func (m *Metrics) serveText(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m.reg.WriteText(w)
}

// statusWriter captures the response status code for instrumentation.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps h with a request counter and latency histogram labelled by
// method and route pattern; the status code labels the counter only, keeping
// histogram cardinality down.
func (m *Metrics) instrument(method, pattern string, h http.HandlerFunc) http.HandlerFunc {
	hist := m.lat.With(metrics.L("method", method, "path", pattern))
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		hist.Observe(time.Since(start).Seconds())
		m.reqs.With(metrics.L("method", method, "path", pattern, "code", strconv.Itoa(code))).Inc()
	}
}
