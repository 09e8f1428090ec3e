package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"vmalloc"
	"vmalloc/internal/core"
	"vmalloc/internal/vec"
	"vmalloc/internal/workload"
)

// Every size below is a frozen constant of the benchmark: nothing is derived
// from the machine at run time, so two boxes generate the same inputs from
// the same seed and only the number of rounds that fit in the window differs.
const (
	parkHosts = 64  // hosts of every paper-scale platform (Tables 1-2)
	parkLive  = 512 // services resident in the serving workloads
	parkPool  = 2048
	parkCOV   = 0.5
	parkSlack = 0.5
	// A serving run visits several independently generated parks, an equal
	// share of the window each, and pools their samples: how long a park
	// takes to pack varies severalfold from draw to draw (the yield search
	// pays per failed step, and which steps fail follows the bits of the
	// park's best yield), so one draw per run would make every epoch-bound
	// number a lottery across seeds. serve-churn gates on the write path,
	// which hardly depends on the park (its eight parks steady the yield it
	// reports); epoch-park gates on the epoch itself and visits a new park
	// every other cycle (epoch.go).
	churnParks = 8

	lpHosts, lpServices = 8, 64 // the LP tier's paper scale (PR 1)
	// Exact branch and bound is heavy-tailed in the instance: at 4x10 the
	// median solve is 0.14 s and one in ten takes over a second, which would
	// own the workload's time; at 3x8 it is 16 ms and 40 ms.
	milpHosts, milpServices = 3, 8

	tinySize     = 2e-5 // ingest-recover service size, cmd/loadgen's default
	ingestBatch  = 64
	ingestBodies = 256 // distinct pre-encoded batch requests, cycled
)

var (
	heurSizes = []int{100, 250, 500}
	covs      = []float64{0, 0.5, 1.0}
)

// stream derives an independent RNG for one named input from the run seed, so
// adding an input never shifts the draws of another.
func stream(seed int64, name string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, name)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// fitsAlone is the cheap necessary condition for feasibility: every service's
// rigid requirements fit some empty node. §4's heavy-tailed memory marginal
// makes most 100-service draws fail it at slack 0.5; the generator redraws
// those so that no operation of the workload fails by construction.
func fitsAlone(p *core.Problem) bool {
	zero := vec.New(p.Dim())
	for j := range p.Services {
		ok := false
		for h := range p.Nodes {
			if p.Services[j].FitsRequirements(&p.Nodes[h], zero) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// instance is one generated solver input.
type instance struct {
	Scn vmalloc.Scenario
	P   *core.Problem
}

func genInstance(rng *rand.Rand, hosts, services int, cov float64) instance {
	for {
		scn := vmalloc.Scenario{Hosts: hosts, Services: services, COV: cov, Slack: parkSlack, Seed: rng.Int63()}
		if p := workload.Generate(scn); fitsAlone(p) {
			return instance{Scn: scn, P: p}
		}
	}
}

// heurRounds generates n balanced rounds of the paper's Table 1/2 problem:
// one instance per (services, COV) cell at 64 hosts, fresh scenario seeds per
// round. A window runs whole rounds only, so throughput is comparable however
// many rounds the machine fits. The (100 services, COV 0) cell is left out:
// at slack 0.5 a homogeneous platform cannot hold the largest of 100
// heavy-tailed memory footprints (0 of 200 draws pass fitsAlone), so it would
// measure the redraw loop, not a solver.
func heurRounds(seed int64, n int) [][]instance {
	rng := stream(seed, "solve-heur")
	rounds := make([][]instance, n)
	for r := range rounds {
		for _, size := range heurSizes {
			for c, cov := range covs {
				if size == heurSizes[0] && c == 0 {
					continue
				}
				rounds[r] = append(rounds[r], genInstance(rng, parkHosts, size, cov))
			}
		}
	}
	return rounds
}

// lpRound is one round of the LP tier: three relaxation instances and one
// exact MILP instance.
type lpRound struct {
	Relax []instance
	Exact instance
}

func lpRounds(seed int64, n int) []lpRound {
	rng := stream(seed, "solve-lp")
	rounds := make([]lpRound, n)
	for r := range rounds {
		for _, cov := range covs {
			rounds[r].Relax = append(rounds[r].Relax, genInstance(rng, lpHosts, lpServices, cov))
		}
		rounds[r].Exact = genInstance(rng, milpHosts, milpServices, parkCOV)
	}
	return rounds
}

// park is the serving workloads' platform and service pool: a paper-scale
// 64-host platform and parkPool services sized so that any parkLive of them
// load it like a §4 instance (memory slack 0.5) with the CPU over-subscribed
// by parkCPULoad. The daemon is handed only the node file and request bodies.
type park struct {
	Nodes []vmalloc.Node
	Pool  []vmalloc.Service
}

// parkCPULoad is total CPU need over total CPU capacity of a resident
// population. §4 uses 1.0; there one park state in ten admits yield 1, the
// yield search ends at its first probe and the "epoch" takes 3 ms instead of
// 300. At 1.25 the best yield stays near 0.8 and every epoch searches.
const parkCPULoad = 1.25

func genPark(seed int64, name string) *park {
	rng := stream(seed, name)
	var p *core.Problem
	for {
		p = workload.Generate(vmalloc.Scenario{
			Hosts: parkHosts, Services: parkPool, COV: parkCOV, Slack: parkSlack, Seed: rng.Int63(),
		})
		// Generate scales to the pool; rescale to the resident population.
		k := float64(parkPool) / parkLive
		for j := range p.Services {
			s := &p.Services[j]
			s.Name = ""
			s.ReqElem[workload.Mem] *= k
			s.ReqAgg[workload.Mem] *= k
			s.NeedElem[workload.CPU] *= k * parkCPULoad
			s.NeedAgg[workload.CPU] *= k * parkCPULoad
		}
		if fitsAlone(p) {
			break
		}
	}
	return &park{Nodes: p.Nodes, Pool: p.Services}
}

// nodeFile encodes the platform as the problem JSON `vmallocd -nodes` reads.
func nodeFile(nodes []vmalloc.Node) []byte {
	data, err := json.Marshal(&core.Problem{Nodes: nodes})
	if err != nil {
		panic(err) // generated nodes are finite and non-negative
	}
	return data
}

type opKind uint8

const (
	opAdd opKind = iota
	opRemove
	opUpdate
	opEpoch
	opRepair
)

func (k opKind) String() string {
	return [...]string{"add", "remove", "update", "reallocate", "repair"}[k]
}

// op is one scheduled request. Ops name pool indices, never server ids: the
// schedule is a pure function of the seed and is mapped to ids on ack.
type op struct {
	Due   time.Duration // offset from the window start (open loop only)
	Kind  opKind
	Svc   int     // pool index (add, remove, update)
	Nth   int     // ordinal among the schedule's ops on Svc (open loop only)
	Scale float64 // update: new CPU need = pool need * Scale
	Leg   int     // serve-churn: 0 = lo, 1 = hi
}

// population is the generator's model of which pool indices are resident. It
// assumes every add is admitted; an add the daemon rejects (409) turns the
// later ops on that index into counted skips.
type population struct {
	live []int // resident pool indices
	free []int // FIFO of non-resident indices: a removed index is reused last
}

func newPopulation() *population {
	p := &population{}
	for i := 0; i < parkPool; i++ {
		if i < parkLive {
			p.live = append(p.live, i)
		} else {
			p.free = append(p.free, i)
		}
	}
	return p
}

func (p *population) add() int {
	svc := p.free[0]
	p.free = p.free[1:]
	p.live = append(p.live, svc)
	return svc
}

// remove takes the resident at position i out.
func (p *population) remove(i int) int {
	svc := p.live[i]
	last := len(p.live) - 1
	p.live[i] = p.live[last]
	p.live = p.live[:last]
	p.free = append(p.free, svc)
	return svc
}

// Churn mix add:remove:update. Equal add and remove weights keep the resident
// population a random walk around parkLive.
const mixAdd, mixRemove, mixUpdate = 35, 35, 30

func poisson(rng *rand.Rand, rate float64, from, to time.Duration) []time.Duration {
	var due []time.Duration
	for t := from; ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= to {
			return due
		}
		due = append(due, t)
	}
}

// churnSchedule is serve-churn's schedule on one park. The open loop is
// Poisson writes at loRate for `half` and then hiRate for another `half`,
// merged in due order with one reallocate epoch per second of the hi leg; the
// lo leg carries no epochs so that it isolates the write path (nothing
// contends), the hi leg adds the epoch's hold on the store lock. sat is the
// closed-loop saturation leg that follows: per connection, add/update/remove
// triples on pool services of its own, so the two never wait for each other.
func churnSchedule(seed int64, name string, half time.Duration, loRate, hiRate float64) (open []op, sat [maxConns][]op) {
	rng := stream(seed, name)
	window := 2 * half
	due := append(poisson(rng, loRate, 0, half), poisson(rng, hiRate, half, window)...)
	pop := newPopulation()
	nth := make([]int, parkPool)
	nextEpoch := half + time.Second/2
	for _, d := range due {
		for nextEpoch <= d {
			open = append(open, op{Due: nextEpoch, Kind: opEpoch, Leg: 1})
			nextEpoch += time.Second
		}
		o := op{Due: d, Leg: leg(d, half)}
		switch k := rng.Intn(mixAdd + mixRemove + mixUpdate); {
		case k < mixAdd || len(pop.live) == 0:
			o.Kind, o.Svc = opAdd, pop.add()
		case k < mixAdd+mixRemove:
			o.Kind, o.Svc = opRemove, pop.remove(rng.Intn(len(pop.live)))
		default:
			o.Kind, o.Svc, o.Scale = opUpdate, pop.live[rng.Intn(len(pop.live))], 0.5+rng.Float64()
		}
		o.Nth = nth[o.Svc]
		nth[o.Svc]++
		open = append(open, o)
	}
	for i, svc := range pop.free {
		w := i % maxConns
		sat[w] = append(sat[w], op{Kind: opAdd, Svc: svc, Leg: 2},
			op{Kind: opUpdate, Svc: svc, Scale: 0.5 + rng.Float64(), Leg: 2}, op{Kind: opRemove, Svc: svc, Leg: 2})
	}
	return open, sat
}

func leg(d, half time.Duration) int {
	if d < half {
		return 0
	}
	return 1
}

// Per-cycle churn of epoch-park: about 5% of the park turns over and 10% of
// it changes its needs between two re-allocations.
const (
	cycleReplace = 26
	cycleUpdate  = 50
	// repairBudget bounds the migrations of the repair epoch. A budget-32
	// repair of a 64x512 park takes seconds (ten reallocates), so the traced
	// run measures one per park instead of every cycle paying for it.
	repairBudget = 32
)

// parkCycles is epoch-park's closed-loop schedule: each cycle removes
// cycleReplace residents, admits as many fresh ones, updates cycleUpdate, and
// ends in a reallocate epoch.
func parkCycles(seed int64, name string, n int) [][]op {
	rng := stream(seed, name)
	pop := newPopulation()
	cycles := make([][]op, n)
	for c := range cycles {
		var ops []op
		for i := 0; i < cycleReplace; i++ {
			ops = append(ops, op{Kind: opRemove, Svc: pop.remove(rng.Intn(len(pop.live)))})
		}
		for i := 0; i < cycleReplace; i++ {
			ops = append(ops, op{Kind: opAdd, Svc: pop.add()})
		}
		for i := 0; i < cycleUpdate; i++ {
			ops = append(ops, op{Kind: opUpdate, Svc: pop.live[rng.Intn(len(pop.live))], Scale: 0.5 + rng.Float64()})
		}
		cycles[c] = append(ops, op{Kind: opEpoch})
	}
	return cycles
}

// scaledNeeds returns svc's fluid needs with the CPU need scaled.
func scaledNeeds(svc *vmalloc.Service, scale float64) (elem, agg vmalloc.Vec) {
	elem, agg = svc.NeedElem.Clone(), svc.NeedAgg.Clone()
	elem[workload.CPU] *= scale
	agg[workload.CPU] *= scale
	return elem, agg
}

// Wire shapes of the daemon's write endpoints (docs/api.md).
type addBody struct {
	True *vmalloc.Service `json:"true"`
}

type batchBody struct {
	Services []addBody `json:"services"`
}

type needsBody struct {
	TrueElem vmalloc.Vec `json:"true_elem"`
	TrueAgg  vmalloc.Vec `json:"true_agg"`
	EstElem  vmalloc.Vec `json:"est_elem"`
	EstAgg   vmalloc.Vec `json:"est_agg"`
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // bench-generated values are always encodable
	}
	return data
}

func addRequest(svc *vmalloc.Service) []byte { return mustJSON(addBody{True: svc}) }

func needsRequest(svc *vmalloc.Service, scale float64) []byte {
	elem, agg := scaledNeeds(svc, scale)
	return mustJSON(needsBody{TrueElem: elem, TrueAgg: agg, EstElem: elem, EstAgg: agg})
}

// tinyService is one ingest-recover service: cmd/loadgen's 2e-5 default with
// the same mild jitter, so admissions are not byte-identical.
func tinyService(rng *rand.Rand) vmalloc.Service {
	req, need := make(vmalloc.Vec, workload.Dims), make(vmalloc.Vec, workload.Dims)
	for d := range req {
		req[d] = tinySize * (0.5 + rng.Float64())
		need[d] = tinySize * (0.5 + rng.Float64())
	}
	return vmalloc.Service{ReqElem: req, ReqAgg: req.Clone(), NeedElem: need, NeedAgg: need.Clone()}
}

// ingestRequests pre-encodes ingestBodies distinct batch-of-64 requests; the
// workers cycle through them.
func ingestRequests(seed int64) [][]byte {
	rng := stream(seed, "ingest-recover/batches")
	bodies := make([][]byte, ingestBodies)
	for i := range bodies {
		var b batchBody
		for k := 0; k < ingestBatch; k++ {
			svc := tinyService(rng)
			b.Services = append(b.Services, addBody{True: &svc})
		}
		bodies[i] = mustJSON(b)
	}
	return bodies
}
