// Package trace reads and writes cluster workload traces in a simplified
// Google-cluster-data-style CSV format and extracts the two service-size
// marginals the paper uses from the dataset [19]: requested core counts and
// memory fractions. Extracted empirical distributions plug directly into the
// workload generator (they implement workload.Sampler), and can also be
// fitted back to the parametric form used by workload.Google.
//
// The public Google trace cannot ship with an offline module, so Synthesize
// produces statistically plausible trace files; the ingestion pipeline is
// identical either way.
package trace

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"

	"vmalloc/internal/workload"
)

// EventType mirrors the Google trace task-event taxonomy (only the values
// the extractor interprets are listed).
type EventType int

const (
	// EventSubmit is a task submission (carries the resource request).
	EventSubmit EventType = 0
	// EventSchedule is a task being scheduled on a machine.
	EventSchedule EventType = 1
	// EventFinish is a normal task completion.
	EventFinish EventType = 4
)

// Record is one task event row: timestamp, job, task index within job,
// event type, requested CPU cores and requested memory as a fraction of a
// reference machine.
type Record struct {
	Timestamp int64
	JobID     int64
	TaskIndex int
	Event     EventType
	Cores     int
	MemFrac   float64
}

// Write emits records as CSV (one row per record, no header), the layout
// Read expects.
func Write(w io.Writer, recs []Record) error {
	cw := csv.NewWriter(w)
	for _, r := range recs {
		row := []string{
			strconv.FormatInt(r.Timestamp, 10),
			strconv.FormatInt(r.JobID, 10),
			strconv.Itoa(r.TaskIndex),
			strconv.Itoa(int(r.Event)),
			strconv.Itoa(r.Cores),
			strconv.FormatFloat(r.MemFrac, 'g', -1, 64),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Read parses a CSV trace. Rows with the wrong column count or unparsable
// fields produce errors identifying the offending line.
func Read(r io.Reader) ([]Record, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 6
	var out []Record
	line := 0
	for {
		row, err := cr.Read()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line+1, err)
		}
		line++
		rec, err := parseRow(row)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, rec)
	}
}

func parseRow(row []string) (Record, error) {
	var rec Record
	var err error
	if rec.Timestamp, err = strconv.ParseInt(row[0], 10, 64); err != nil {
		return rec, fmt.Errorf("bad timestamp %q", row[0])
	}
	if rec.JobID, err = strconv.ParseInt(row[1], 10, 64); err != nil {
		return rec, fmt.Errorf("bad job id %q", row[1])
	}
	if rec.TaskIndex, err = strconv.Atoi(row[2]); err != nil {
		return rec, fmt.Errorf("bad task index %q", row[2])
	}
	ev, err := strconv.Atoi(row[3])
	if err != nil {
		return rec, fmt.Errorf("bad event type %q", row[3])
	}
	rec.Event = EventType(ev)
	if rec.Cores, err = strconv.Atoi(row[4]); err != nil || rec.Cores < 0 {
		return rec, fmt.Errorf("bad core count %q", row[4])
	}
	if rec.MemFrac, err = strconv.ParseFloat(row[5], 64); err != nil ||
		rec.MemFrac < 0 || math.IsNaN(rec.MemFrac) || math.IsInf(rec.MemFrac, 0) {
		return rec, fmt.Errorf("bad memory fraction %q", row[5])
	}
	return rec, nil
}

// ReadFile reads a trace from the named file.
func ReadFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// WriteFile writes a trace to the named file.
func WriteFile(path string, recs []Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := Write(f, recs); err != nil {
		return err
	}
	return f.Close()
}

// Synthesize generates a plausible trace of n submitted tasks (with matching
// schedule/finish events) from the default Google marginals, for offline use
// of the ingestion pipeline.
func Synthesize(n int, seed int64) []Record {
	g := workload.DefaultGoogle()
	rng := workload.NewRand(seed)
	var out []Record
	t := int64(0)
	for i := 0; i < n; i++ {
		t += int64(rng.ExpFloat64() * 1e6)
		cores := g.SampleCores(rng)
		mem := g.SampleMem(rng)
		job, task := int64(1000+i/4), i%4
		out = append(out,
			Record{Timestamp: t, JobID: job, TaskIndex: task, Event: EventSubmit, Cores: cores, MemFrac: mem},
			Record{Timestamp: t + int64(rng.Intn(1e6)), JobID: job, TaskIndex: task, Event: EventSchedule, Cores: cores, MemFrac: mem},
			Record{Timestamp: t + int64(1e6+rng.Intn(1e8)), JobID: job, TaskIndex: task, Event: EventFinish, Cores: cores, MemFrac: mem},
		)
	}
	return out
}

// Empirical holds the marginals extracted from submit events. It implements
// workload.Sampler by bootstrap resampling.
type Empirical struct {
	// CoreValues and CoreWeights form the empirical core-count distribution.
	CoreValues  []int
	CoreWeights []float64
	// MemFracs holds the raw memory fractions (sorted ascending).
	MemFracs []float64
	// ElemCPURequirement is the reference elementary CPU requirement used
	// when generating services (defaults to the Google default).
	ElemCPURequirement float64
}

// Extract builds empirical marginals from the submit events of a trace.
func Extract(recs []Record) (*Empirical, error) {
	counts := map[int]int{}
	var mems []float64
	for _, r := range recs {
		if r.Event != EventSubmit {
			continue
		}
		if r.Cores <= 0 {
			continue // tasks without a CPU request carry no signal
		}
		counts[r.Cores]++
		mems = append(mems, clampMem(r.MemFrac))
	}
	if len(mems) == 0 {
		return nil, errors.New("trace: no usable submit events")
	}
	e := &Empirical{
		MemFracs:           mems,
		ElemCPURequirement: workload.DefaultGoogle().ElemCPURequirement,
	}
	for c := range counts {
		e.CoreValues = append(e.CoreValues, c)
	}
	sort.Ints(e.CoreValues)
	total := 0
	for _, c := range e.CoreValues {
		total += counts[c]
	}
	for _, c := range e.CoreValues {
		e.CoreWeights = append(e.CoreWeights, float64(counts[c])/float64(total))
	}
	sort.Float64s(e.MemFracs)
	return e, nil
}

func clampMem(m float64) float64 {
	g := workload.DefaultGoogle()
	if m < g.MemMin {
		return g.MemMin
	}
	if m > g.MemMax {
		return g.MemMax
	}
	return m
}

// SampleCores implements workload.Sampler by drawing from the empirical
// core-count distribution.
func (e *Empirical) SampleCores(rng *rand.Rand) int {
	r := rng.Float64()
	for i, w := range e.CoreWeights {
		r -= w
		if r < 0 {
			return e.CoreValues[i]
		}
	}
	return e.CoreValues[len(e.CoreValues)-1]
}

// SampleMem implements workload.Sampler by bootstrap resampling the
// empirical memory fractions.
func (e *Empirical) SampleMem(rng *rand.Rand) float64 {
	return e.MemFracs[rng.Intn(len(e.MemFracs))]
}

// ElemCPUReq implements workload.Sampler.
func (e *Empirical) ElemCPUReq() float64 { return e.ElemCPURequirement }

// FitGoogle fits the parametric workload.Google form to the empirical
// marginals: categorical core weights as observed, and a log-normal fitted
// to the memory fractions by log-moment matching.
func (e *Empirical) FitGoogle() *workload.Google {
	g := workload.DefaultGoogle()
	g.CoreChoices = append([]int(nil), e.CoreValues...)
	g.CoreWeights = append([]float64(nil), e.CoreWeights...)
	mean, sd := logMoments(e.MemFracs)
	g.MemLogMean = mean
	g.MemLogSigma = sd
	g.ElemCPURequirement = e.ElemCPURequirement
	return g
}

func logMoments(xs []float64) (mean, sd float64) {
	n := float64(len(xs))
	for _, x := range xs {
		mean += math.Log(x)
	}
	mean /= n
	for _, x := range xs {
		d := math.Log(x) - mean
		sd += d * d
	}
	if len(xs) > 1 {
		sd = math.Sqrt(sd / (n - 1))
	}
	return mean, sd
}
