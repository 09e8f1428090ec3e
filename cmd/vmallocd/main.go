// Command vmallocd is the durable allocation daemon: a vmalloc.Cluster of
// -shards placement domains (one unless told otherwise) behind per-shard
// write-ahead journals, served over HTTP/JSON.
//
// Every mutation (admission, departure, need update, threshold change,
// applied reallocation epoch, cross-shard rebalance move) is journaled with
// group-commit batched fsync and is durable when the response arrives;
// snapshots compact the log and bound recovery time. Restarting the daemon
// on the same -dir recovers the exact pre-shutdown cluster state from
// snapshot + WAL replay, one WAL per shard. Each shard's epochs race the
// strategy roster on max(1, GOMAXPROCS/shards) workers; the placements are
// the same at every core count.
//
// A recovered directory defines its own platform: booting it with -nodes,
// -hosts, -state-in, -threshold, -seed or a conflicting -shards fails fast
// instead of silently ignoring the flags — as does -follow with any of them,
// since a follower's platform is its leader's.
//
// Usage:
//
//	vmallocd -dir data -nodes nodes.json            # first boot: platform from a problem file
//	vmallocd -dir data -hosts 16 -cov 0.5 -seed 1   # first boot: generated platform
//	vmallocd -dir data -state-in cluster.json       # first boot: state from `vmalloc -state-out`
//	vmallocd -dir data -hosts 64 -shards 4          # first boot: 4 placement domains
//	vmallocd -dir data                              # every later boot: recover and serve
//
// See internal/server for the endpoint list.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vmalloc"
	"vmalloc/internal/journal"
	"vmalloc/internal/obs"
	"vmalloc/internal/replica"
	"vmalloc/internal/server"
	"vmalloc/internal/workload"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		dir       = flag.String("dir", "", "journal directory (required)")
		nodesFile = flag.String("nodes", "", "problem JSON file supplying the platform (first boot)")
		stateIn   = flag.String("state-in", "", "cluster state JSON bootstrapping a fresh directory (first boot)")
		hosts     = flag.Int("hosts", 0, "generate a platform with this many hosts (first boot)")
		cov       = flag.Float64("cov", 0.5, "coefficient of variation for -hosts")
		seed      = flag.Int64("seed", 1, "seed for -hosts (and the shard admission hash)")
		threshold = flag.Float64("threshold", 0, "initial mitigation threshold (first boot)")
		tolerance = flag.Float64("tol", 0, "yield search tolerance (0 = paper default)")
		lpBound   = flag.Bool("lpbound", false, "bracket the yield search with the warm-started LP bound")
		shards    = flag.Int("shards", 0, "partition the platform into this many placement domains (first boot; 0 = 1)")
		rebGap    = flag.Float64("rebalance-gap", 0, "rebalance when the bottleneck shard trails the median yield by more than this (0 = default 0.1, negative disables)")
		rebMoves  = flag.Int("rebalance-moves", 0, "max services migrated per rebalance pass (0 = default 2, negative disables)")
		snapEvery = flag.Int("snapshot-every", 0, "checkpoint after this many records (0 = 4096, negative disables)")
		segBytes  = flag.Int64("segment-bytes", 0, "WAL segment rotation size (0 = 8 MiB)")
		fsync     = flag.String("fsync", "batch", "durability mode: batch (group commit) or none")
		noMetrics = flag.Bool("no-metrics", false, "disable GET /metrics and per-endpoint instrumentation")
		follow    = flag.String("follow", "", "follow the leader vmallocd at this base URL: serve a read-only replica until POST /v1/promote")
		poll      = flag.Duration("poll", 0, "replication pull interval once caught up (with -follow; 0 = 200ms)")
		readyLag  = flag.Int64("ready-lag", 0, "max per-shard replication lag in records before GET /readyz fails (with -follow; 0 = 4096, negative disables)")
		logLevel  = flag.String("log-level", "info", "log verbosity: debug, info, warn or error (per-request lines log at debug)")
		logFormat = flag.String("log-format", "text", "log encoding: text or json")
		traceRing = flag.Int("trace-ring", 0, "retained request traces behind GET /v1/debug/traces (0 = 256, negative disables tracing)")
		slowTrace = flag.Duration("slow-trace", 0, "traces slower than this are kept in the longer-lived slow ring (0 = 500ms)")
		pprofOn   = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (opt-in)")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "vmallocd: -dir is required")
		flag.Usage()
		os.Exit(2)
	}

	lg, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fatal(err)
	}
	observer := &obs.Observer{
		Tracer: obs.NewTracer(*traceRing, *slowTrace),
		Epochs: obs.NewEpochRing(0),
	}
	if *traceRing < 0 {
		observer.Tracer.SetEnabled(false)
	}

	var fsyncMode journal.FsyncMode
	switch *fsync {
	case "batch":
		fsyncMode = journal.FsyncBatch
	case "none":
		fsyncMode = journal.FsyncNone
	default:
		fatal(fmt.Errorf("unknown -fsync mode %q (want batch or none)", *fsync))
	}

	// A recovered directory carries its own platform; first-boot flags on
	// top of it are a conflict, not a preference. Fail fast and name the
	// platform that would win instead of silently ignoring the flags.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	recovered, manifest, err := server.DirRecovered(*dir)
	if err != nil {
		fatal(err)
	}
	if recovered {
		var conflicts []string
		for _, name := range []string{"nodes", "hosts", "state-in", "threshold", "cov", "seed"} {
			if set[name] {
				conflicts = append(conflicts, "-"+name)
			}
		}
		if set["shards"] && *shards != manifest.Shards {
			conflicts = append(conflicts, "-shards")
		}
		if len(conflicts) > 0 {
			fatal(fmt.Errorf("%s already holds a recovered platform (%s); it conflicts with %s — drop the flags to serve the recovered state, or point -dir at a fresh directory",
				*dir, server.DescribeDir(*dir), strings.Join(conflicts, ", ")))
		}
	}

	opts := &server.Options{
		Cluster: vmalloc.ClusterOptions{
			Tolerance:  *tolerance,
			Threshold:  *threshold,
			UseLPBound: *lpBound,
		},
		SegmentBytes:   *segBytes,
		Fsync:          fsyncMode,
		SnapshotEvery:  *snapEvery,
		Shards:         *shards,
		ShardSeed:      *seed,
		RebalanceGap:   *rebGap,
		RebalanceMoves: *rebMoves,
		Obs:            observer,
	}

	// The platform only matters on first boot; an existing journal carries
	// its own (and the conflict check above already rejected overrides).
	var nodes []vmalloc.Node
	switch {
	case *stateIn != "":
		data, err := os.ReadFile(*stateIn)
		if err != nil {
			fatal(err)
		}
		st, err := server.DecodeState(data)
		if err != nil {
			fatal(err)
		}
		opts.InitialState = st
	case *nodesFile != "":
		p, err := vmalloc.LoadProblem(*nodesFile)
		if err != nil {
			fatal(err)
		}
		nodes = p.Nodes
	case *hosts > 0:
		nodes = workload.Platform(workload.Scenario{
			Hosts: *hosts, COV: *cov, Mode: workload.HeteroBoth, Seed: *seed,
		}, rand.New(rand.NewSource(*seed)))
	}

	// api is what the HTTP surface serves for the life of the process;
	// closeStore checkpoints and releases whatever is behind it at exit.
	var (
		api        server.API
		closeStore func() error
	)
	if *follow != "" {
		// A follower's platform — nodes, partition, admission seed — comes
		// from the leader's manifest; every first-boot platform flag is a
		// conflict.
		var conflicts []string
		for _, name := range []string{"nodes", "hosts", "state-in", "threshold", "cov", "seed", "shards"} {
			if set[name] {
				conflicts = append(conflicts, "-"+name)
			}
		}
		if len(conflicts) > 0 {
			fatal(fmt.Errorf("-follow replicates the leader's platform; it conflicts with %s", strings.Join(conflicts, ", ")))
		}
		f, err := replica.Open(context.Background(), replica.Options{
			Leader:   *follow,
			Dir:      *dir,
			Poll:     *poll,
			ReadyLag: *readyLag,
			Server:   opts,
		})
		if err != nil {
			fatal(err)
		}
		sw := replica.NewSwitch(f)
		api, closeStore = sw, sw.Close
		lg.Info("following leader (read-only until POST /v1/promote)", "leader", *follow)
	} else {
		st, err := server.Open(*dir, nodes, opts)
		if err != nil {
			fatal(err)
		}
		for _, w := range st.RecoveryWarnings {
			lg.Warn("recovery", "warning", w)
		}
		api, closeStore = st, st.Close
	}
	stats := api.Stats()
	lg.Info("recovered",
		"services", stats.Services,
		"shards", stats.Shards,
		"replayed", stats.Replayed,
		"snapshot_seq", stats.SnapshotSeq,
		"truncated_bytes", stats.TruncatedBytes,
	)

	var m *server.Metrics
	if !*noMetrics {
		m = server.NewObservedMetrics(api, observer)
	}
	var handler http.Handler = server.NewObservedHandler(api, m, observer, lg)
	if *pprofOn {
		outer := http.NewServeMux()
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		outer.Handle("/", handler)
		handler = outer
	}
	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// A slow-header client must not pin a connection forever
		// (slowloris); epochs can legitimately run long, so responses get
		// no WriteTimeout — only reads and idle keep-alives are bounded.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	lg.Info("serving", "addr", *addr, "journal", *dir, "fsync", *fsync, "pprof", *pprofOn)

	select {
	case <-ctx.Done():
		lg.Info("shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			lg.Warn("http shutdown", "err", err)
		}
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			closeStore()
			fatal(err)
		}
	}
	if err := closeStore(); err != nil {
		fatal(err)
	}
	lg.Info("checkpointed and closed")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vmallocd:", err)
	os.Exit(1)
}
