// Command bench is the repo's benchmark: five named workloads, end-to-end
// metrics from an untraced run and per-layer metrics from a separate traced
// run, every output checked. See README.md in this directory.
//
//	go run -C bench . -workload solve-heur -seed 1 -seconds 20 -trace 0
//	go run -C bench . -seed 1              # all five, writes bench/out/result.json
//	go run -C bench . -seed 1 -trace 1     # the traced runs (per-layer metrics)
//	go run -C bench . -compare A.json B.json   # paths relative to bench/
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef is one entry of BENCHMARK.json's end_to_end or per_layer list.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec mirrors BENCHMARK.json, the single source of the metric names, units
// and regression bounds; the code only fills in values.
type spec struct {
	RunSeconds int         `json:"run_seconds"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// env is what every workload run gets.
type env struct {
	root      string // the checkout
	out       string // bench/out: results, traces, temp dirs
	tmp       string // out/tmp: daemon data dirs and logs, removed on exit
	daemonBin string
	seed      int64
	seconds   float64
	rec       *recorder // non-nil on a traced run
	procs     procSet
}

func (e *env) traced() bool { return e.rec != nil }

// tempDir makes a fresh directory under out/tmp, which run removes on exit.
func (e *env) tempDir(pattern string) (string, error) { return os.MkdirTemp(e.tmp, pattern) }

func (e *env) window() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

// value is one reported number with its sample count.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	// Flag marks a number that did not meet its sampling rule (a tail
	// percentile with fewer than ten samples beyond it).
	Flag string `json:"flag,omitempty"`
}

// result is one workload run: metric values by name plus the output checks.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Traced    bool             `json:"traced"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Failures  []string         `json:"failures,omitempty"`
}

func newResult(workload string, traced bool) *result {
	return &result{Workload: workload, Traced: traced, Metrics: map[string]value{}}
}

func (r *result) set(name string, v float64, n int) { r.Metrics[name] = value{Value: v, N: n} }

// setTiming reports a summarised timing's median and tail under two names;
// an empty p50 reports the tail alone.
func (r *result) setTiming(p50, tail string, s summary) {
	if p50 != "" {
		r.set(p50, s.P50, s.N)
	}
	v := value{Value: s.Tail, N: s.N}
	if !s.Sound {
		v.Flag = fmt.Sprintf("p%g has %d samples beyond, want %d", s.TailPct, s.Beyond, minBeyond)
	}
	r.Metrics[tail] = v
}

// attempt counts n operations or output checks as attempted.
func (r *result) attempt(n int) { r.Attempted += n }

// fail counts one failed operation or output check; a failure makes the run
// incorrect and the command exit non-zero.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// check is attempt(1) plus fail on !ok.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempt(1)
	if !ok {
		r.fail(format, args...)
	}
}

// order is every workload, in the order the all-five command runs them.
// BENCHMARK.json lists the ones the merge gate runs (README, Steadiness).
var order = []string{"solve-heur", "solve-lp", "serve-churn", "epoch-park", "ingest-recover"}

var workloads = map[string]func(*env) (*result, error){
	"solve-heur":     runSolveHeur,
	"solve-lp":       runSolveLP,
	"serve-churn":    runServeChurn,
	"epoch-park":     runEpochPark,
	"ingest-recover": runIngestRecover,
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all five)")
		seed     = flag.Int64("seed", 1, "input seed: same seed, same instances, node files and op schedules")
		repeats  = flag.Int("repeats", 1, "run everything this many times on seeds seed, seed+1, ...; -compare then knows each side's spread")
		seconds  = flag.Float64("seconds", 0, "measured window per workload (default: BENCHMARK.json run_seconds)")
		trace    = flag.Int("trace", 0, "1 = the traced run: per-layer metrics and out/trace-<workload>.json")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
		outDir   = flag.String("out", "", "output directory (default: <checkout>/bench/out)")
	)
	flag.Parse()
	if err := run(*workload, *seed, max(*repeats, 1), *seconds, *trace != 0, *compare, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned after the result has been printed: a failed
// operation or output check makes the command exit non-zero.
var errIncorrect = errors.New("operations or output checks failed")

func run(workload string, seed int64, repeats int, seconds float64, traced, compare bool, outDir string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	sp, err := loadSpec(root)
	if err != nil {
		return err
	}
	if compare {
		if flag.NArg() != 2 {
			return errors.New("usage: bench -compare A.json B.json")
		}
		return compareFiles(sp, flag.Arg(0), flag.Arg(1))
	}
	if seconds <= 0 {
		seconds = float64(sp.RunSeconds)
	}
	if outDir == "" {
		outDir = filepath.Join(root, "bench", "out")
	}
	e := &env{root: root, out: outDir, seed: seed, seconds: seconds}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return err
	}
	if e.tmp, err = os.MkdirTemp(e.out, "tmp-"); err != nil {
		return err
	}
	cleanup := func() {
		e.procs.killAll()
		os.RemoveAll(e.tmp)
	}
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()

	names := []string{workload}
	if workload == "" {
		names = order
	}
	needDaemon := false
	for _, n := range names {
		if workloads[n] == nil {
			return fmt.Errorf("unknown workload %q", n)
		}
		needDaemon = needDaemon || !strings.HasPrefix(n, "solve-")
	}
	if needDaemon {
		if err := e.buildDaemon(); err != nil {
			return err
		}
	}

	defs := sp.EndToEnd
	if traced {
		defs = sp.PerLayer
	}
	var results []*result
	incorrect := false
	for rep := 0; rep < repeats; rep++ {
		e.seed = seed + int64(rep)
		for _, n := range names {
			if traced {
				e.rec = newRecorder()
			}
			res, err := workloads[n](e)
			e.procs.killAll()
			if err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
			if traced {
				if err := e.rec.write(filepath.Join(e.out, "trace-"+n+".json")); err != nil {
					return err
				}
			}
			res.Seed = e.seed
			fill(res, defs)
			printResult(res, defs)
			results = append(results, res)
			incorrect = incorrect || res.Failed > 0
		}
	}
	if workload == "" {
		name := "result.json"
		if traced {
			name = "result-traced.json"
		}
		if err := writeResultFile(filepath.Join(e.out, name), e, seed, repeats, results); err != nil {
			return err
		}
	} else {
		// The contract line: last on standard output, exactly these keys.
		printContract(results[0], defs)
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

// findRoot walks up from the working directory to the checkout root, the
// directory holding BENCHMARK.json (`go run -C bench .` starts in bench/).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in any parent directory")
		}
		dir = parent
	}
}

// buildDaemon builds the real vmallocd from the checkout's source. The build
// is not part of setup_s: it depends on the state of the Go build cache, not
// on the code under test.
func (e *env) buildDaemon() error {
	e.daemonBin = filepath.Join(e.out, "bin", "vmallocd")
	cmd := exec.Command("go", "build", "-o", e.daemonBin, "./cmd/vmallocd")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/vmallocd: %w\n%s", err, out)
	}
	return nil
}

// fill gives every metric of the spec a unit and, on a traced run, a zero
// for the layer metrics this workload does not exercise (the contract wants
// every per-layer metric on every workload; a layer a workload bypasses does
// no work there). A missing end-to-end metric is a bug and fails the run.
func fill(res *result, defs []metricDef) {
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok && !res.Traced {
			res.attempt(1)
			res.fail("end-to-end metric %s was not measured", d.Name)
		}
		v.Unit = d.Unit
		res.Metrics[d.Name] = v
	}
}

func printResult(res *result, defs []metricDef) {
	kind := "end-to-end (untraced)"
	if res.Traced {
		kind = "per-layer (traced)"
	}
	fmt.Printf("== %s: %s\n", res.Workload, kind)
	for _, d := range defs {
		v := res.Metrics[d.Name]
		if res.Traced && v.N == 0 {
			continue // layer not exercised by this workload
		}
		line := fmt.Sprintf("  %-32s %14.6g %-10s n=%d", d.Name, v.Value, d.Unit, v.N)
		if v.Flag != "" {
			line += "  [" + v.Flag + "]"
		}
		fmt.Println(line)
	}
	var extra []string
	known := map[string]bool{}
	for _, d := range defs {
		known[d.Name] = true
	}
	for name := range res.Metrics {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		v := res.Metrics[name]
		fmt.Printf("  %-32s %14.6g %-10s n=%d  (diagnostic)\n", name, v.Value, v.Unit, v.N)
	}
	fmt.Printf("  attempted %d, failed %d\n", res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Println("  FAIL:", f)
	}
}

func printContract(res *result, defs []metricDef) {
	type cv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]cv `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: map[string]cv{}}
	for _, d := range defs {
		out.Metrics[d.Name] = cv{Value: res.Metrics[d.Name].Value, Unit: d.Unit}
	}
	fmt.Println(string(mustJSON(out)))
}

// resultFile is the schema of out/result.json and BASELINE.json.
type resultFile struct {
	Commit     string    `json:"commit"`
	Seed       int64     `json:"seed"`
	Repeats    int       `json:"repeats"`
	Seconds    float64   `json:"seconds"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Fsync      string    `json:"fsync"`
	DataDirFS  string    `json:"data_dir_fs"`
	Workloads  []*result `json:"workloads"`
}

func writeResultFile(path string, e *env, seed int64, repeats int, results []*result) error {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", e.root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	rf := resultFile{
		Commit: commit, Seed: seed, Repeats: repeats, Seconds: e.seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Fsync: "batch", DataDirFS: fsName(e.out), Workloads: results,
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
