// Command experiments is the one front end of the paper's experiments: it
// regenerates the tables and figures of the evaluation (§5–§6), writes
// synthetic instances and traces following the §4 methodology (-exp gen),
// and runs the §8 dynamic hosting-platform simulation (-exp simulate).
// Each table or figure target prints the corresponding series as text.
//
// By default the sweeps are reduced (fewer COV points, seeds and services
// per node) so a full run completes on a laptop; -full selects the paper's
// original scale (64 hosts, 100/250/500 services, 41 COV points, 9 slacks,
// 100 seeds) and can run for days — see the Experiments section of
// README.md.
//
// Usage:
//
//	experiments -exp table1|table2
//	experiments -exp fig2|fig3|fig4 [-slack 0.3] [-services 125] [-plot]
//	experiments -exp fig5|fig6|fig7 [-cov 0.5] [-slack 0.4] [-services 25] [-plot]
//	experiments -exp light|binorder|hardness|theorem1|profile
//	experiments -exp online|sharded|recovery
//	experiments -exp gen -hosts 64 -services 500 -cov 0.5 -slack 0.3 -seed 1 -o inst.json
//	experiments -exp gen -make-trace 500 -o trace.csv
//	experiments -exp gen -trace trace.csv -hosts 8 -services 40
//	experiments -exp simulate -hosts 16 -rate 4 -lifetime 10 -horizon 200 -epoch 5 \
//	            -maxerr 0.2 -threshold adaptive [-repair -budget 2]
//
// Every target accepts -seeds; any other flag only where the target reads
// it (see -h). A flag the chosen target does not read, or a value out of
// range, exits with status 2 before anything is written.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"vmalloc/internal/core"
	"vmalloc/internal/exp"
	"vmalloc/internal/exp/recovery"
	"vmalloc/internal/hvp"
	"vmalloc/internal/platform"
	"vmalloc/internal/plot"
	"vmalloc/internal/sched"
	"vmalloc/internal/trace"
	"vmalloc/internal/vec"
	"vmalloc/internal/vp"
	"vmalloc/internal/workload"
)

// target is one -exp target: the flags it reads beyond -exp and -seeds
// (which every target accepts), the values it gives those of them whose
// default is its own when the command line leaves them unset, and its run.
type target struct {
	reads    string
	defaults map[string]string
	run      func()
}

func main() {
	var (
		which    = flag.String("exp", "", "experiment: table1|table2|fig2..fig7|light|binorder|hardness|theorem1|profile|online|sharded|recovery|gen|simulate")
		full     = flag.Bool("full", false, "all but theorem1, gen, simulate: use the paper's original sweep sizes (very slow)")
		workers  = flag.Int("workers", 0, "table1–2, fig2–7, binorder, hardness, profile: worker pool size (0 = GOMAXPROCS)")
		slack    = flag.Float64("slack", 0.4, "fig2–7, gen: memory slack in (0,1) (unset = 0.3 for fig2–4)")
		cov      = flag.Float64("cov", 0.5, "fig5–7, gen, simulate: coefficient of variation of node capacities")
		services = flag.Int("services", 100, "fig2–7, gen: service count (unset for figures = the sweep's own size)")
		seeds    = flag.Int("seeds", 0, "number of seeds per point (unset = the target's own)")
		doPlot   = flag.Bool("plot", false, "fig2–7: render the figure as an ASCII chart")
		csvOut   = flag.String("csv", "", "table1, fig2–7: also write raw results as CSV to this file prefix")

		hosts     = flag.Int("hosts", 64, "gen, simulate: number of nodes (unset = 16 for simulate)")
		seed      = flag.Int64("seed", 1, "gen, simulate: generator or simulation seed")
		mode      = flag.String("mode", "both", "gen: heterogeneity: both|cpu-homogeneous|mem-homogeneous")
		out       = flag.String("o", "", "gen: output file (default stdout)")
		fromTrace = flag.String("trace", "", "gen: derive service marginals from a task-event trace CSV")
		makeTrace = flag.Int("make-trace", 0, "gen: instead of a problem, synthesize a trace with N tasks")

		rate      = flag.Float64("rate", 4, "simulate: service arrival rate (per time unit)")
		lifetime  = flag.Float64("lifetime", 10, "simulate: mean service lifetime")
		horizon   = flag.Float64("horizon", 200, "simulate: simulated duration")
		epoch     = flag.Float64("epoch", 5, "simulate: reallocation period")
		maxErr    = flag.Float64("maxerr", 0, "simulate: max CPU-need estimation error")
		threshold = flag.String("threshold", "0", "simulate: mitigation threshold (number or 'adaptive')")
		repair    = flag.Bool("repair", false, "simulate: use migration-bounded incremental repair instead of full reallocation")
		budget    = flag.Int("budget", -1, "simulate: migrations allowed per repair epoch (-1 = unlimited)")
	)
	flag.Parse()
	plotFlag = *doPlot
	csvPrefix = *csvOut
	cfg := newConfig(*full)

	// A figure sweeps one service count unless -services is set: the largest
	// for fig2–4, one size each for fig5–7.
	const sweep, fig = "full workers", "full workers slack services plot csv"
	figCOV := func(n int) target {
		return target{fig, map[string]string{"slack": "0.3", "services": strconv.Itoa(n)},
			func() { figYieldVsCOV(cfg, *which, *slack, *services) }}
	}
	figErr := func(n int) target {
		return target{fig + " cov", map[string]string{"services": strconv.Itoa(n)},
			func() { figErrors(cfg, *which, *slack, *cov, *services) }}
	}
	largest := cfg.services[len(cfg.services)-1]
	targets := map[string]target{
		"table1":   {sweep + " csv", nil, func() { table1(cfg) }},
		"table2":   {sweep, nil, func() { table2(cfg) }},
		"fig2":     figCOV(largest),
		"fig3":     figCOV(largest),
		"fig4":     figCOV(largest),
		"fig5":     figErr(cfg.services[0]),
		"fig6":     figErr(cfg.services[1]),
		"fig7":     figErr(cfg.services[2]),
		"light":    {"full", nil, func() { lightComparison(cfg) }},
		"binorder": {sweep, nil, func() { binOrderAblation(cfg) }},
		"hardness": {sweep, nil, func() { hardnessCurve(cfg) }},
		"theorem1": {"", nil, theorem1Table},
		"profile":  {sweep, nil, func() { profileStrategies(cfg) }},
		"online":   {"full", nil, func() { onlineTable(cfg) }},
		"sharded":  {"full", nil, func() { shardedTable(cfg) }},
		"recovery": {"full", nil, func() { recoveryTable(cfg) }},
		"gen": {"hosts services cov slack seed mode o trace make-trace", nil, func() {
			scn := workload.Scenario{Hosts: *hosts, Services: *services, COV: *cov, Slack: *slack, Seed: *seed}
			gen(scn, *mode, *out, *fromTrace, *makeTrace)
		}},
		"simulate": {"hosts cov seed rate lifetime horizon epoch maxerr threshold repair budget", map[string]string{"hosts": "16"}, func() {
			th := float64(platform.AdaptiveThreshold)
			if *threshold != "adaptive" {
				v, err := strconv.ParseFloat(*threshold, 64)
				if err != nil {
					exit(2, "bad -threshold:", err)
				}
				th = v
			}
			simulate(platform.Config{
				Nodes: workload.Platform(workload.Scenario{
					Hosts: *hosts, COV: *cov, Mode: workload.HeteroBoth, Seed: *seed,
				}, workload.NewRand(*seed)),
				ArrivalRate:     *rate,
				MeanLifetime:    *lifetime,
				Horizon:         *horizon,
				Epoch:           *epoch,
				MaxErr:          *maxErr,
				Threshold:       th,
				UseRepair:       *repair,
				MigrationBudget: *budget,
				Seed:            *seed,
			})
		}},
	}

	t, ok := targets[*which]
	if !ok {
		exit(2, "unknown or missing -exp (see -h)")
	}
	reads := strings.Fields(t.reads + " exp seeds")
	set := map[string]bool{}
	var unread []string
	flag.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		if !slices.Contains(reads, f.Name) {
			unread = append(unread, "-"+f.Name)
		}
	})
	for name, v := range t.defaults {
		if !set[name] {
			flag.Set(name, v)
		}
	}
	switch {
	case *hosts < 1:
		exit(2, "-hosts must be at least 1, got", *hosts)
	case *services < 1:
		exit(2, "-services must be at least 1, got", *services)
	case *cov < 0:
		exit(2, "-cov must not be negative, got", *cov)
	case *slack <= 0 || *slack >= 1:
		exit(2, "-slack must be in (0,1), got", *slack)
	case *maxErr < 0:
		exit(2, "-maxerr must not be negative, got", *maxErr)
	case set["seeds"] && *seeds < 1:
		exit(2, "-seeds must be at least 1, got", *seeds)
	case *workers < 0:
		exit(2, "-workers must not be negative, got", *workers)
	case len(unread) > 0:
		exit(2, "-exp", *which, "does not read", strings.Join(unread, ", "))
	}
	if set["seeds"] {
		cfg.seeds = seedRange(*seeds)
	}
	cfg.workers = *workers
	t.run()
}

// exit prints its arguments after the command's name to stderr and exits
// with code.
func exit(code int, args ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"experiments:"}, args...)...)
	os.Exit(code)
}

// gen writes one §4 instance of scn as JSON — its service marginals drawn
// from a task-event trace when fromTrace is set — or, when makeTrace > 0, a
// synthetic trace of that many tasks instead. It writes to the file out, or
// to stdout when out is empty.
func gen(scn workload.Scenario, mode, out, fromTrace string, makeTrace int) {
	if makeTrace > 0 {
		recs := trace.Synthesize(makeTrace, scn.Seed)
		if out == "" {
			if err := trace.Write(os.Stdout, recs); err != nil {
				exit(1, err)
			}
			return
		}
		if err := trace.WriteFile(out, recs); err != nil {
			exit(1, err)
		}
		fmt.Fprintf(os.Stderr, "experiments: wrote %d trace records to %s\n", len(recs), out)
		return
	}

	switch mode {
	case "both":
		scn.Mode = workload.HeteroBoth
	case "cpu-homogeneous":
		scn.Mode = workload.HeteroCPUHomogeneous
	case "mem-homogeneous":
		scn.Mode = workload.HeteroMemHomogeneous
	default:
		exit(2, fmt.Sprintf("unknown mode %q", mode))
	}

	var p *core.Problem
	if fromTrace != "" {
		recs, err := trace.ReadFile(fromTrace)
		if err != nil {
			exit(1, err)
		}
		emp, err := trace.Extract(recs)
		if err != nil {
			exit(1, err)
		}
		p = workload.GenerateSampled(scn, emp)
	} else {
		p = workload.Generate(scn)
	}
	if out == "" {
		if err := p.WriteJSON(os.Stdout); err != nil {
			exit(1, err)
		}
		return
	}
	if err := p.SaveFile(out); err != nil {
		exit(1, err)
	}
	fmt.Fprintf(os.Stderr, "experiments: wrote %d nodes, %d services to %s\n",
		p.NumNodes(), p.NumServices(), out)
}

// simulate runs the dynamic hosting platform on the persistent allocation
// engine: services arrive and depart over time, METAHVPLIGHT reallocates
// every epoch on warm solver state (or repairs within a migration budget),
// CPU-need estimates are noisy, and the mitigation threshold is fixed or
// adaptive. Each epoch races the strategy roster across GOMAXPROCS workers;
// the trajectory is the same at every core count.
func simulate(cfg platform.Config) {
	stats, err := platform.Run(cfg)
	if err != nil {
		exit(1, err)
	}
	fmt.Printf("arrivals=%d rejections=%d (%.1f%%) departures=%d migrations=%d reallocs=%d failed-epochs=%d\n",
		stats.Arrivals, stats.Rejections, stats.RejectionRate()*100,
		stats.Departures, stats.Migrations, stats.Reallocs, stats.FailedEpoch)
	fmt.Printf("mean minimum yield over epochs: %.4f\n\n", stats.MeanMinYield())

	fmt.Println("time     services  minyield  meanyield  migrations  threshold")
	for _, s := range stats.Samples {
		fmt.Printf("%7.1f  %8d  %.4f    %.4f     %10d  %.4f\n",
			s.Time, s.Services, s.MinYield, s.MeanYield, s.Migrations, s.Threshold)
	}
}

// config holds sweep sizes for quick vs full mode.
type config struct {
	full     bool
	hosts    int
	services []int
	covs     []float64
	slacks   []float64
	seeds    []int64
	errSteps []float64
	workers  int
	lpHosts  int
	lpSvcs   []int
}

func newConfig(full bool) config {
	if full {
		return config{
			full:     true,
			hosts:    64,
			services: []int{100, 250, 500},
			covs:     covRange(0, 1.0, 0.025),
			slacks:   covRange(0.1, 0.9, 0.1),
			seeds:    seedRange(100),
			errSteps: covRange(0, 0.3, 0.02),
			lpHosts:  16,
			lpSvcs:   []int{48, 64},
		}
	}
	return config{
		hosts:    16,
		services: []int{25, 60, 125},
		covs:     []float64{0, 0.25, 0.5, 0.75, 1.0},
		slacks:   []float64{0.3, 0.5, 0.7},
		seeds:    seedRange(3),
		errSteps: []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3},
		lpHosts:  8,
		lpSvcs:   []int{32},
	}
}

func covRange(lo, hi, step float64) []float64 {
	var out []float64
	for x := lo; x <= hi+1e-9; x += step {
		out = append(out, x)
	}
	return out
}

func seedRange(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

func table1(cfg config) {
	fmt.Println("=== Table 1: pairwise (Y_{A,B}, S_{A,B}) — heuristic tier ===")
	grid := exp.GridSpec{
		Hosts: cfg.hosts, Services: cfg.services,
		COVs: cfg.covs, Slacks: cfg.slacks, Seeds: cfg.seeds,
	}
	runner := &exp.Runner{Workers: cfg.workers}
	heur := runner.Run(grid.Scenarios(), exp.HeuristicRoster(vp.DefaultTolerance))
	writeCSV("table1", heur.WriteResultsCSV)
	names := []string{exp.NameMetaGreedy, exp.NameMetaVP, exp.NameMetaHVP, exp.NameMetaHVPLight}
	for _, j := range cfg.services {
		sub := heur.Filter(func(s workload.Scenario) bool { return s.Services == j })
		fmt.Printf("\n-- %d services (%d hosts, %d instances) --\n", j, cfg.hosts, len(sub.Scenarios))
		fmt.Print(sub.Table1(names))
		fmt.Print(sub.SuccessSummary(names))
	}

	fmt.Println("\n=== Table 1: LP tier (RRND/RRNZ, sparse warm-started simplex) ===")
	lpGrid := exp.GridSpec{
		Hosts: cfg.lpHosts, Services: cfg.lpSvcs,
		COVs: []float64{0, 0.5, 1.0}, Slacks: []float64{0.4, 0.6}, Seeds: cfg.seeds,
	}
	all := runner.Run(lpGrid.Scenarios(), exp.FullRoster(vp.DefaultTolerance, 42))
	lpNames := []string{exp.NameRRND, exp.NameRRNZ, exp.NameMetaGreedy, exp.NameMetaVP, exp.NameMetaHVP}
	for _, j := range cfg.lpSvcs {
		sub := all.Filter(func(s workload.Scenario) bool { return s.Services == j })
		fmt.Printf("\n-- %d services (%d hosts, %d instances) --\n", j, cfg.lpHosts, len(sub.Scenarios))
		fmt.Print(sub.Table1(lpNames))
		fmt.Print(sub.SuccessSummary(lpNames))
	}
}

func table2(cfg config) {
	fmt.Println("=== Table 2: mean run times (this machine; paper used a 2.27GHz Xeon) ===")
	grid := exp.GridSpec{
		Hosts: cfg.hosts, Services: cfg.services,
		COVs: []float64{0, 0.5, 1.0}, Slacks: []float64{0.5}, Seeds: cfg.seeds,
	}
	runner := &exp.Runner{Workers: cfg.workers}
	rs := runner.Run(grid.Scenarios(), exp.HeuristicRoster(vp.DefaultTolerance))
	fmt.Print(rs.Table2([]string{exp.NameMetaGreedy, exp.NameMetaVP, exp.NameMetaHVP, exp.NameMetaHVPLight}))

	fmt.Println("\n-- RRNZ timing (LP tier sizes) --")
	lpGrid := exp.GridSpec{
		Hosts: cfg.lpHosts, Services: cfg.lpSvcs,
		COVs: []float64{0.5}, Slacks: []float64{0.5}, Seeds: cfg.seeds,
	}
	lrs := runner.Run(lpGrid.Scenarios(), []exp.Algo{exp.RRNZAlgo(42)})
	fmt.Print(lrs.Table2([]string{exp.NameRRNZ}))
}

func figYieldVsCOV(cfg config, which string, slack float64, services int) {
	mode := workload.HeteroBoth
	label := "fully heterogeneous"
	switch which {
	case "fig3":
		mode = workload.HeteroCPUHomogeneous
		label = "CPU held homogeneous"
	case "fig4":
		mode = workload.HeteroMemHomogeneous
		label = "memory held homogeneous"
	}
	covs := cfg.covs
	if !cfg.full {
		covs = covRange(0, 0.9, 0.1)
	}
	fmt.Printf("=== %s: min-yield difference from METAHVP vs COV (%s; %d hosts, %d services, slack %.1f) ===\n",
		which, label, cfg.hosts, services, slack)
	grid := exp.GridSpec{
		Hosts: cfg.hosts, Services: []int{services},
		COVs: covs, Slacks: []float64{slack}, Seeds: cfg.seeds, Mode: mode,
	}
	runner := &exp.Runner{Workers: cfg.workers}
	rs := runner.Run(grid.Scenarios(), exp.HeuristicRoster(vp.DefaultTolerance))
	fmt.Print(rs.FigureYieldVsCOV([]string{exp.NameMetaGreedy, exp.NameMetaVP}, exp.NameMetaHVP))
	writeCSV(which, rs.WriteResultsCSV)
	if plotFlag {
		series := rs.COVPlotSeries([]string{exp.NameMetaGreedy, exp.NameMetaVP}, exp.NameMetaHVP)
		fmt.Println()
		fmt.Print(plot.Render(series, 70, 20, "coefficient of variation", "minimum yield difference"))
	}
}

// plotFlag enables ASCII chart rendering for figure experiments.
var plotFlag bool

// csvPrefix, when nonempty, selects a file prefix for raw CSV dumps.
var csvPrefix string

// writeCSV writes <prefix>-<tag>.csv with write when -csv is set.
func writeCSV(tag string, write func(io.Writer) error) {
	if csvPrefix == "" {
		return
	}
	path := csvPrefix + "-" + tag + ".csv"
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: csv:", err)
		return
	}
	defer f.Close()
	if err := write(f); err != nil {
		fmt.Fprintln(os.Stderr, "experiments: csv:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "experiments: wrote %s\n", path)
}

func figErrors(cfg config, which string, slack, cov float64, services int) {
	fmt.Printf("=== %s: achieved min yield vs max CPU-need error (%d hosts, %d services, slack %.1f, cov %.1f) ===\n",
		which, cfg.hosts, services, slack, cov)
	var scns []workload.Scenario
	for _, seed := range cfg.seeds {
		scns = append(scns, workload.Scenario{
			Hosts: cfg.hosts, Services: services, COV: cov, Slack: slack, Seed: seed,
		})
	}
	thresholds := []float64{0, 0.1, 0.3}
	e := &exp.ErrorExperiment{
		Scenarios:  scns,
		MaxErrors:  cfg.errSteps,
		Thresholds: thresholds,
		Workers:    cfg.workers,
		SeedSalt:   0x5eed,
	}
	curves := e.Run()
	fmt.Print(exp.FigureErrorCurves(curves, thresholds))
	writeCSV(which, func(w io.Writer) error { return exp.WriteErrorCurvesCSV(w, curves, thresholds) })
	if plotFlag {
		fmt.Println()
		fmt.Print(plot.Render(exp.ErrorPlotSeries(curves, thresholds), 70, 20,
			"maximum error", "minimum achieved yield"))
	}
}

func lightComparison(cfg config) {
	hosts, services := 32, 250
	if cfg.full {
		hosts, services = 512, 2000
	}
	fmt.Printf("=== METAHVP vs METAHVPLIGHT (%d hosts, %d services) ===\n", hosts, services)
	p := workload.Generate(workload.Scenario{
		Hosts: hosts, Services: services, COV: 0.5, Slack: 0.4, Seed: 1,
	})
	run := func(name string, f func(*core.Problem, float64) *core.Result) {
		start := time.Now()
		res := f(p, vp.DefaultTolerance)
		el := time.Since(start)
		fmt.Printf("%-14s solved=%-5v min yield=%.4f time=%.2fs\n", name, res.Solved, res.MinYield, el.Seconds())
	}
	run(exp.NameMetaHVPLight, hvp.MetaHVPLight)
	run(exp.NameMetaHVP, hvp.MetaHVP)
}

func binOrderAblation(cfg config) {
	fmt.Println("=== Ablation: HVP First-Fit bin-order sensitivity ===")
	grid := exp.GridSpec{
		Hosts: cfg.hosts, Services: []int{cfg.services[len(cfg.services)-1]},
		COVs: []float64{0.25, 0.5, 1.0}, Slacks: []float64{0.3}, Seeds: cfg.seeds,
	}
	var algos []exp.Algo
	var names []string
	for _, bo := range vp.AllOrders() {
		bo := bo
		name := "FF/bins=" + bo.String()
		names = append(names, name)
		algos = append(algos, exp.Algo{Name: name, Run: func(p *core.Problem) *core.Result {
			return vp.Solve(p, vp.Config{
				Alg:       vp.FirstFit,
				ItemOrder: vp.Order{Metric: vec.MetricSum, Descending: true},
				BinOrder:  bo,
				Hetero:    true,
			}, vp.DefaultTolerance)
		}})
	}
	runner := &exp.Runner{Workers: cfg.workers}
	rs := runner.Run(grid.Scenarios(), algos)
	fmt.Print(rs.SuccessSummary(names))
}

// hardnessCurve sweeps the memory slack and reports success rates per
// algorithm — the §4 "slack quantifies hardness" observation.
func hardnessCurve(cfg config) {
	fmt.Println("=== Hardness: success rate vs memory slack ===")
	grid := exp.GridSpec{
		Hosts: cfg.hosts, Services: []int{cfg.services[len(cfg.services)-1]},
		COVs: []float64{0.5}, Slacks: covRange(0.1, 0.9, 0.1), Seeds: cfg.seeds,
	}
	runner := &exp.Runner{Workers: cfg.workers}
	rs := runner.Run(grid.Scenarios(), exp.HeuristicRoster(vp.DefaultTolerance))
	names := []string{exp.NameMetaGreedy, exp.NameMetaVP, exp.NameMetaHVP}
	fmt.Printf("%-8s", "slack")
	for _, n := range names {
		fmt.Printf(" %14s", n)
	}
	fmt.Println()
	slacks, _ := rs.SuccessBySlack(names[0])
	series := map[string][]float64{}
	for _, n := range names {
		_, rates := rs.SuccessBySlack(n)
		series[n] = rates
	}
	for i, s := range slacks {
		fmt.Printf("%-8.1f", s)
		for _, n := range names {
			fmt.Printf(" %13.1f%%", series[n][i]*100)
		}
		fmt.Println()
	}
}

// profileStrategies reproduces the §5.1 analysis that engineered
// METAHVPLIGHT: every base HVP strategy is ranked by success rate, then mean
// yield, and the top of the ranking is checked against the LIGHT subset.
func profileStrategies(cfg config) {
	fmt.Println("=== §5.1 strategy profile: base HVP strategies ranked (top 50) ===")
	grid := exp.GridSpec{
		Hosts: cfg.hosts, Services: []int{cfg.services[len(cfg.services)-1]},
		COVs: []float64{0.25, 0.5, 1.0}, Slacks: []float64{0.3, 0.6}, Seeds: cfg.seeds,
	}
	stats := exp.ProfileStrategies(grid.Scenarios(), vp.DefaultTolerance, cfg.workers)
	fmt.Print(exp.RenderProfile(stats, 50))
	fmt.Printf("\nMETAHVPLIGHT membership among the top 50: %.0f%%\n",
		exp.LightCoverage(stats, 50)*100)
}

// theorem1Table prints the EQUALWEIGHTS competitive ratio achieved on the
// tight instance against the (2J-1)/J² bound.
func theorem1Table() {
	fmt.Println("=== Theorem 1: EQUALWEIGHTS worst-case ratio on the tight instance ===")
	fmt.Println("J     achieved   bound (2J-1)/J²")
	for _, J := range []int{2, 3, 5, 10, 25, 100} {
		needs := make([]float64, J)
		needs[0] = 1
		sum := 1.0
		for j := 1; j < J; j++ {
			needs[j] = 1 / float64(J)
			sum += needs[j]
		}
		nc := &sched.NodeCPU{
			Capacity: 1, Req: make([]float64, J),
			Estimated: make([]float64, J), TrueNeed: needs,
		}
		got := nc.MinYield(sched.EqualWeights) / (1 / sum)
		fmt.Printf("%-5d %.6f   %.6f\n", J, got, sched.CompetitiveLowerBound(J))
	}
}

// onlineTable prints the §8 online-platform churn sweep: steady-state
// yield, migration load and rejection rate against arrival rate, through
// the persistent allocation engine.
func onlineTable(cfg config) {
	spec := exp.OnlineSpec{
		Hosts: cfg.hosts, COV: 0.5,
		Rates:   []float64{2, 4, 8, 12},
		Horizon: 100, Epoch: 5,
		MaxErr: 0.2, Threshold: platform.AdaptiveThreshold,
		Seeds: cfg.seeds,
	}
	if cfg.full {
		spec.Rates = []float64{2, 4, 8, 12, 16, 24}
		spec.Horizon = 400
	}
	start := time.Now()
	rows, err := spec.Run()
	if err != nil {
		exit(1, err)
	}
	fmt.Printf("=== Online platform: steady state vs churn (%d hosts, adaptive threshold, %v) ===\n",
		spec.Hosts, time.Since(start).Round(time.Millisecond))
	fmt.Print(exp.OnlineTable(rows))
}

func shardedTable(cfg config) {
	spec := exp.ShardedSpec{
		Hosts: 16, COV: 0.5,
		Shards:           []int{1, 2, 4},
		ArrivalsPerEpoch: 8,
		Epochs:           40,
		Seeds:            cfg.seeds,
	}
	if cfg.full {
		spec.Hosts = 64
		spec.Shards = []int{1, 2, 4, 8}
		spec.ArrivalsPerEpoch = 24
		spec.Epochs = 120
	}
	start := time.Now()
	rows, err := spec.Run()
	if err != nil {
		exit(1, err)
	}
	fmt.Printf("=== Sharded tier: churn vs placement-domain count (%d hosts, %v) ===\n",
		spec.Hosts, time.Since(start).Round(time.Millisecond))
	fmt.Print(exp.ShardedTable(rows))
}

func recoveryTable(cfg config) {
	spec := recovery.Spec{
		Hosts:         cfg.hosts,
		Ops:           []int{200, 1000},
		SnapshotEvery: []int{-1, 64, 256},
	}
	if cfg.full {
		spec.Ops = []int{1000, 5000, 20000}
		spec.SnapshotEvery = []int{-1, 256, 1024, 4096}
	}
	start := time.Now()
	rows, err := spec.Run()
	if err != nil {
		exit(1, err)
	}
	fmt.Printf("=== Durable tier: recovery time vs log length and snapshot interval (%d hosts, %v) ===\n",
		spec.Hosts, time.Since(start).Round(time.Millisecond))
	fmt.Print(recovery.Table(rows))
}
