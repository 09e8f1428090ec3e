// Package platform is a discrete-event simulator of a virtualized service
// hosting platform driven by the paper's allocation algorithms — the §8
// "future work" system: METAHVPLIGHT (or any placer) runs as the resource
// management component of a hosting infrastructure, services arrive and
// depart over time, CPU-need estimates are noisy, and the error-mitigation
// threshold can adapt to the observed estimation error.
//
// The simulator is a thin driver over the persistent allocation engine
// (internal/engine): the engine owns the live cluster state — slab-resident
// services, incrementally maintained per-node loads, recycled problem views
// and long-lived solver arenas — while the simulator owns time: the event
// queue, the workload generator, the estimation-error window and the
// adaptive-threshold controller. Admission uses the engine's best-fit test,
// reallocation happens every epoch through the engine (full meta
// reallocation or migration-bounded repair), and achieved yields are sampled
// under the work-conserving ALLOCWEIGHTS policy. The engine is the only
// placement domain, so it races its strategy roster on
// engine.DomainWorkers(1) = GOMAXPROCS workers. For a fixed seed the
// trajectory is deterministic regardless of that count, and the
// golden-trajectory tests pin it bit for bit against the historical
// rebuild-per-epoch simulator at the acceptance-scale seeds (see the
// internal/engine doc for the one ULP-level caveat on admission ties).
package platform

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"vmalloc/internal/core"
	"vmalloc/internal/engine"
	"vmalloc/internal/heapx"
	"vmalloc/internal/sched"
	"vmalloc/internal/workload"
)

// Placer computes a placement from the (estimated) problem view.
type Placer func(p *core.Problem) *core.Result

// AdaptiveThreshold requests the feedback controller of §8: the mitigation
// threshold follows the maximum estimation error observed on departed
// services.
const AdaptiveThreshold = -1

// Config parameterizes one simulation run.
type Config struct {
	// Nodes is the fixed physical platform.
	Nodes []core.Node
	// ArrivalRate is the mean number of service arrivals per unit time
	// (Poisson process).
	ArrivalRate float64
	// MeanLifetime is the mean service lifetime (exponential).
	MeanLifetime float64
	// Horizon is the simulated duration.
	Horizon float64
	// Epoch is the reallocation period; the placer runs at every multiple.
	Epoch float64
	// MaxErr bounds the uniform CPU-need estimation error of arriving
	// services (0 = perfect estimates).
	MaxErr float64
	// Threshold is the §6.2 mitigation threshold applied to estimates
	// before placement; AdaptiveThreshold enables the feedback controller.
	Threshold float64
	// Placer overrides the engine's built-in METAHVPLIGHT reallocation.
	Placer Placer
	// UseRepair switches epochs from full reallocation to migration-bounded
	// incremental repair (internal/opt): still-feasible services stay put,
	// and at most MigrationBudget services move per epoch.
	UseRepair bool
	// MigrationBudget caps migrations per repair epoch (negative =
	// unlimited). Ignored unless UseRepair is set.
	MigrationBudget int
	// Seed drives all randomness.
	Seed int64
	// Google overrides the service-size marginals (DefaultGoogle when nil).
	Google *workload.Google
	// MeanCPUNeed sets the average aggregate CPU need of arrivals; when 0 a
	// value is derived so that steady-state CPU demand is ~70% of capacity.
	MeanCPUNeed float64
}

// Sample is one epoch observation.
type Sample struct {
	Time       float64
	Services   int
	MinYield   float64
	MeanYield  float64
	Migrations int
	Threshold  float64
	Solved     bool
}

// Stats aggregates a run.
type Stats struct {
	Samples     []Sample
	Arrivals    int
	Rejections  int
	Departures  int
	Migrations  int
	Reallocs    int
	FailedEpoch int // epochs where the placer could not place everything
}

// MeanMinYield averages the sampled minimum yield over epochs with at least
// one hosted service.
func (st *Stats) MeanMinYield() float64 {
	sum, n := 0.0, 0
	for _, s := range st.Samples {
		if s.Services > 0 && s.Solved {
			sum += s.MinYield
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// RejectionRate is rejected arrivals over total arrivals.
func (st *Stats) RejectionRate() float64 {
	if st.Arrivals == 0 {
		return 0
	}
	return float64(st.Rejections) / float64(st.Arrivals)
}

// event kinds.
const (
	evArrival = iota
	evDeparture
	evEpoch
)

type event struct {
	t    float64
	kind int
	id   int // engine service id for departures
	seq  int // tie-breaker for deterministic ordering
}

// eventLess orders events by time, ties broken by insertion sequence — a
// total order, so the generic heap pops the exact sequence the historical
// container/heap implementation did.
func eventLess(a, b event) bool {
	if a.t != b.t { //vmalloc:nondet-ok event-time tie-break: exact equality is required for a deterministic total order
		return a.t < b.t
	}
	return a.seq < b.seq
}

// sim owns simulated time and the workload; cluster state lives in the
// engine.
type sim struct {
	cfg    Config
	rng    *rand.Rand
	now    float64
	queue  *heapx.Heap[event]
	seq    int
	eng    *engine.Engine
	nextID int // names arriving services (rejected ones consume a number too)
	stats  Stats
	// observed estimation errors of departed services, for adaptation
	errWindow []float64
	threshold float64
}

// Run executes the simulation and returns its statistics.
func Run(cfg Config) (*Stats, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("platform: no nodes")
	}
	if cfg.ArrivalRate <= 0 || cfg.MeanLifetime <= 0 || cfg.Horizon <= 0 || cfg.Epoch <= 0 {
		return nil, fmt.Errorf("platform: rates, horizon and epoch must be positive")
	}
	if cfg.Google == nil {
		cfg.Google = workload.DefaultGoogle()
	}
	if cfg.MeanCPUNeed <= 0 {
		totalCPU := 0.0
		for _, n := range cfg.Nodes {
			totalCPU += n.Aggregate[workload.CPU]
		}
		steady := cfg.ArrivalRate * cfg.MeanLifetime // mean live services
		cfg.MeanCPUNeed = 0.7 * totalCPU / math.Max(steady, 1)
	}

	eng, err := engine.New(engine.Config{
		Nodes:   cfg.Nodes,
		Placer:  engine.Placer(cfg.Placer),
		Workers: engine.DomainWorkers(1),
		Now:     time.Now,
	})
	if err != nil {
		return nil, fmt.Errorf("platform: %v", err)
	}
	s := &sim{
		cfg:   cfg,
		rng:   workload.NewRand(cfg.Seed),
		queue: heapx.New(eventLess),
		eng:   eng,
	}
	if cfg.Threshold == AdaptiveThreshold { //vmalloc:nondet-ok AdaptiveThreshold is an exact sentinel constant, never computed
		s.threshold = 0
	} else {
		s.threshold = cfg.Threshold
	}

	s.push(event{t: s.expo(1 / cfg.ArrivalRate), kind: evArrival})
	s.push(event{t: cfg.Epoch, kind: evEpoch})

	for s.queue.Len() > 0 {
		ev := s.queue.Pop()
		if ev.t > cfg.Horizon {
			break
		}
		s.now = ev.t
		switch ev.kind {
		case evArrival:
			s.arrive()
			s.push(event{t: s.now + s.expo(1/cfg.ArrivalRate), kind: evArrival})
		case evDeparture:
			s.depart(ev.id)
		case evEpoch:
			s.reallocate()
			s.push(event{t: s.now + cfg.Epoch, kind: evEpoch})
		}
	}
	return &s.stats, nil
}

func (s *sim) push(ev event) {
	ev.seq = s.seq
	s.seq++
	s.queue.Push(ev)
}

// expo draws an exponential variate with the given mean.
func (s *sim) expo(mean float64) float64 {
	return s.rng.ExpFloat64() * mean
}

// newService draws a service from the Google marginals with CPU needs scaled
// to the configured mean and a perturbed estimate, plus its departure time.
// The draw sequence (core count, memory, estimate error, lifetime) is part
// of the pinned trajectory contract.
func (s *sim) newService() (trueSvc, estSvc core.Service, departAt float64) {
	g := s.cfg.Google
	cores := g.CoreChoices[0]
	{ // inline categorical draw (mirrors workload.sampleCores)
		total := 0.0
		for _, w := range g.CoreWeights {
			total += w
		}
		r := s.rng.Float64() * total
		for i, w := range g.CoreWeights {
			r -= w
			if r < 0 {
				cores = g.CoreChoices[i]
				break
			}
		}
	}
	mem := math.Exp(s.rng.NormFloat64()*g.MemLogSigma+g.MemLogMean) * 0.5
	if mem < g.MemMin {
		mem = g.MemMin
	}
	// Scale CPU need: core count relative to the mean core count maps the
	// configured mean need onto this service.
	meanCores := 0.0
	{
		tw := 0.0
		for i, w := range g.CoreWeights {
			meanCores += w * float64(g.CoreChoices[i])
			tw += w
		}
		meanCores /= tw
	}
	needCPU := s.cfg.MeanCPUNeed * float64(cores) / meanCores
	var name [24]byte
	v := []float64{g.ElemCPURequirement, mem, g.ElemCPURequirement, mem, needCPU / float64(cores), 0, needCPU, 0}
	trueSvc = core.Service{
		Name:    string(strconv.AppendInt(append(name[:0], "svc-"...), int64(s.nextID), 10)),
		ReqElem: v[0:2:2], ReqAgg: v[2:4:4], NeedElem: v[4:6:6], NeedAgg: v[6:8:8],
	}
	estSvc = trueSvc.Clone()
	if s.cfg.MaxErr > 0 {
		e := (s.rng.Float64()*2 - 1) * s.cfg.MaxErr
		est := math.Max(0.001, needCPU+e)
		estSvc.NeedAgg[workload.CPU] = est
		estSvc.NeedElem[workload.CPU] = est / float64(cores)
	}
	s.nextID++
	return trueSvc, estSvc, s.now + s.expo(s.cfg.MeanLifetime)
}

// arrive admits a new service through the engine's best-fit test against its
// incrementally maintained requirement loads; rejection counts but does not
// stop the simulation.
func (s *sim) arrive() {
	s.stats.Arrivals++
	trueSvc, estSvc, departAt := s.newService()
	id, _, ok := s.eng.Add(trueSvc, estSvc)
	if !ok {
		s.stats.Rejections++
		return
	}
	s.push(event{t: departAt, kind: evDeparture, id: id})
}

// depart removes a service and records its estimation error for adaptation.
func (s *sim) depart(id int) {
	trueSvc, estSvc, ok := s.eng.Service(id)
	if !ok {
		return // already gone
	}
	s.stats.Departures++
	errAbs := math.Abs(estSvc.NeedAgg[workload.CPU] - trueSvc.NeedAgg[workload.CPU])
	s.errWindow = append(s.errWindow, errAbs)
	if len(s.errWindow) > 64 {
		s.errWindow = s.errWindow[len(s.errWindow)-64:]
	}
	s.eng.Remove(id)
}

// adaptThreshold updates the mitigation threshold from the observed error
// window (paper §8: "determining and adapting the threshold").
func (s *sim) adaptThreshold() {
	if s.cfg.Threshold != AdaptiveThreshold || len(s.errWindow) == 0 { //vmalloc:nondet-ok AdaptiveThreshold is an exact sentinel constant, never computed
		return
	}
	maxErr := 0.0
	for _, e := range s.errWindow {
		if e > maxErr {
			maxErr = e
		}
	}
	s.threshold = maxErr
}

// reallocate runs one engine epoch (full reallocation or bounded repair),
// then samples achieved yields on the engine's views.
func (s *sim) reallocate() {
	s.adaptThreshold()
	s.eng.SetThreshold(s.threshold)
	sample := Sample{Time: s.now, Services: s.eng.Len(), Threshold: s.threshold}
	if sample.Services == 0 {
		sample.Solved = true
		s.stats.Samples = append(s.stats.Samples, sample)
		return
	}
	s.stats.Reallocs++
	var rep *engine.EpochReport
	if s.cfg.UseRepair {
		rep = s.eng.Repair(s.cfg.MigrationBudget)
	} else {
		rep = s.eng.Reallocate()
	}
	res := rep.Result
	trueP, estP := s.eng.TrueView(), s.eng.EstView()
	if !res.Solved {
		// Keep the previous placement; evaluate it as-is.
		s.stats.FailedEpoch++
		sample.MinYield = sched.EvaluatePlacement(trueP, estP, s.eng.ViewPlacement(), sched.AllocWeights, workload.CPU)
		s.stats.Samples = append(s.stats.Samples, sample)
		return
	}
	sample.Migrations = rep.Migrations
	s.stats.Migrations += rep.Migrations
	sample.Solved = true
	sample.MinYield = sched.EvaluatePlacement(trueP, estP, res.Placement, sched.AllocWeights, workload.CPU)
	// Mean yield under max-uniform-yield evaluation of the true problem.
	if ev := core.EvaluatePlacement(trueP, res.Placement); ev.Solved {
		sum := 0.0
		for _, y := range ev.Yields {
			sum += y
		}
		sample.MeanYield = sum / float64(len(ev.Yields))
	}
	s.stats.Samples = append(s.stats.Samples, sample)
}
