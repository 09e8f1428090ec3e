// Package workload generates the synthetic problem instances of paper §4 and
// the erroneous-estimate variants of §6.2.
//
// Platforms: aggregate CPU and memory capacities are drawn from a normal
// distribution centered at 0.5 whose coefficient of variation is the
// experiment's heterogeneity knob, truncated to [0.001, 1.0]; every machine
// is quad-core, so elementary CPU capacity is a quarter of the aggregate,
// while memory is arbitrarily divisible (elementary = aggregate).
//
// Services: the paper instantiates requirements and needs from the Google
// cluster dataset, which it uses only through two marginals — the number of
// requested cores and the fraction of memory used. This package substitutes
// a distribution-shaped synthetic source (see Google type) with the same
// structure: aggregate CPU need proportional to the requested core count,
// elementary CPU requirement equal to one common reference value, CPU needs
// rescaled so that total CPU need equals total CPU capacity, and memory
// requirements rescaled to a target memory slack.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"vmalloc/internal/core"
)

// Resource dimension indices used by all generated problems.
const (
	CPU = 0
	Mem = 1
	// Dims is the number of resource dimensions in generated problems.
	Dims = 2
)

// CapacityMedian is the center of the node capacity distribution.
const CapacityMedian = 0.5

// Capacity truncation limits (paper §4).
const (
	CapacityMin = 0.001
	CapacityMax = 1.0
)

// CoresPerNode reflects the paper's assumption that every machine is
// quad-core regardless of total power.
const CoresPerNode = 4

// HeterogeneityMode selects which capacity dimensions vary across nodes
// (Figures 2–4 hold one dimension homogeneous).
type HeterogeneityMode int

const (
	// HeteroBoth varies CPU and memory.
	HeteroBoth HeterogeneityMode = iota
	// HeteroCPUHomogeneous fixes CPU at the median and varies memory.
	HeteroCPUHomogeneous
	// HeteroMemHomogeneous fixes memory at the median and varies CPU.
	HeteroMemHomogeneous
)

// String names the mode.
func (m HeterogeneityMode) String() string {
	switch m {
	case HeteroBoth:
		return "both"
	case HeteroCPUHomogeneous:
		return "cpu-homogeneous"
	case HeteroMemHomogeneous:
		return "mem-homogeneous"
	default:
		return fmt.Sprintf("HeterogeneityMode(%d)", int(m))
	}
}

// Google is the synthetic stand-in for the Google cluster dataset marginals.
// CoreChoices and CoreWeights define the categorical distribution of the
// number of requested cores; memory fractions are log-normal with the given
// parameters, truncated to [MemMin, MemMax].
type Google struct {
	CoreChoices []int
	CoreWeights []float64
	MemLogMean  float64
	MemLogSigma float64
	MemMin      float64
	MemMax      float64
	// ElemCPURequirement is the common reference elementary CPU requirement
	// shared by all services.
	ElemCPURequirement float64
}

// DefaultGoogle returns the distribution used throughout the experiments: a
// heavy-tailed core-count distribution dominated by 1-core requests and a
// log-normal memory footprint with median ~5% of a reference machine.
func DefaultGoogle() *Google {
	return &Google{
		CoreChoices: []int{1, 2, 4, 8},
		CoreWeights: []float64{0.60, 0.23, 0.12, 0.05},
		MemLogMean:  math.Log(0.05),
		MemLogSigma: 1.0,
		MemMin:      0.001,
		MemMax:      0.5,
		// Small but nonzero: every service needs a sliver of a real core.
		ElemCPURequirement: 0.0005,
	}
}

// sampleCores draws a requested-core count.
func (g *Google) sampleCores(rng *rand.Rand) int {
	total := 0.0
	for _, w := range g.CoreWeights {
		total += w
	}
	r := rng.Float64() * total
	for i, w := range g.CoreWeights {
		r -= w
		if r < 0 {
			return g.CoreChoices[i]
		}
	}
	return g.CoreChoices[len(g.CoreChoices)-1]
}

// sampleMem draws a memory fraction.
func (g *Google) sampleMem(rng *rand.Rand) float64 {
	m := math.Exp(rng.NormFloat64()*g.MemLogSigma + g.MemLogMean)
	return clamp(m, g.MemMin, g.MemMax)
}

// Scenario identifies one experiment instance family member.
type Scenario struct {
	Hosts    int
	Services int
	// COV is the coefficient of variation of node capacities (0 =
	// homogeneous platform).
	COV float64
	// Slack is the target memory slack: the fraction of total memory left
	// free by a successful allocation; lower is harder (§4).
	Slack float64
	Mode  HeterogeneityMode
	Seed  int64
}

// String renders a compact scenario label.
func (s Scenario) String() string {
	return fmt.Sprintf("H%d/J%d/cov%.2f/slack%.1f/%s/seed%d",
		s.Hosts, s.Services, s.COV, s.Slack, s.Mode, s.Seed)
}

// truncNormal draws from N(mean, (cov*mean)^2) clamped to the capacity
// limits, matching the paper's "limited to minimum values of 0.001 and
// maximum values of 1.0".
func truncNormal(rng *rand.Rand, mean, cov float64) float64 {
	if cov <= 0 {
		return clamp(mean, CapacityMin, CapacityMax)
	}
	return clamp(rng.NormFloat64()*cov*mean+mean, CapacityMin, CapacityMax)
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Platform generates the node set for a scenario. All the nodes' vectors are
// cut from one array, each capped so that an append copies.
func Platform(scn Scenario, rng *rand.Rand) []core.Node {
	nodes, names := make([]core.Node, scn.Hosts), numberedNames("node-", scn.Hosts)
	vecs := make([]float64, 4*scn.Hosts)
	for h := range nodes {
		cpu := CapacityMedian
		mem := CapacityMedian
		if scn.Mode != HeteroCPUHomogeneous {
			cpu = truncNormal(rng, CapacityMedian, scn.COV)
		}
		if scn.Mode != HeteroMemHomogeneous {
			mem = truncNormal(rng, CapacityMedian, scn.COV)
		}
		v := vecs[4*h : 4*h+4 : 4*h+4]
		v[0], v[1], v[2], v[3] = cpu/CoresPerNode, mem, cpu, mem
		nodes[h] = core.Node{Name: names[h], Elementary: v[0:2:2], Aggregate: v[2:4:4]}
	}
	return nodes
}

// numberedNames returns prefix+"0" … prefix+(n-1), all cut from one string.
func numberedNames(prefix string, n int) []string {
	var digits [20]byte
	var b strings.Builder
	b.Grow(n * (len(prefix) + len(strconv.Itoa(n))))
	for i := 0; i < n; i++ {
		b.WriteString(prefix)
		b.Write(strconv.AppendInt(digits[:0], int64(i), 10))
	}
	all, names, off := b.String(), make([]string, n), 0
	for i := range names {
		end := off + len(prefix) + len(strconv.AppendInt(digits[:0], int64(i), 10))
		names[i], off = all[off:end], end
	}
	return names
}

// Sampler provides the two service-size marginals the paper takes from the
// Google dataset, plus the common elementary CPU requirement. Google
// implements it with parametric distributions; trace-derived empirical
// samplers can implement it too. The generator recycles its *rand.Rand, so
// an implementation must not keep rng past the call.
type Sampler interface {
	// SampleCores draws a requested-core count.
	SampleCores(rng *rand.Rand) int
	// SampleMem draws a memory fraction.
	SampleMem(rng *rand.Rand) float64
	// ElemCPUReq returns the common elementary CPU requirement.
	ElemCPUReq() float64
}

// SampleCores implements Sampler.
func (g *Google) SampleCores(rng *rand.Rand) int { return g.sampleCores(rng) }

// SampleMem implements Sampler.
func (g *Google) SampleMem(rng *rand.Rand) float64 { return g.sampleMem(rng) }

// ElemCPUReq implements Sampler.
func (g *Google) ElemCPUReq() float64 { return g.ElemCPURequirement }

// defaultGoogle is the DefaultGoogle that Generate reads; nothing writes it.
var defaultGoogle = DefaultGoogle()

// Generate builds the full problem for a scenario using the default Google
// marginals.
func Generate(scn Scenario) *core.Problem {
	return GenerateWith(scn, defaultGoogle)
}

// rngPool recycles the generator's NewRand streams, each a 4.9 KB register.
// (*rand.Rand).Seed rewrites all of it, read position included, so a
// reseeded one draws exactly the stream of NewRand(seed).
var rngPool = sync.Pool{New: func() any { return NewRand(1) }}

// GenerateWith builds the problem for a scenario from explicit Google
// marginals. See GenerateSampled.
func GenerateWith(scn Scenario, g *Google) *core.Problem {
	return GenerateSampled(scn, g)
}

// GenerateSampled builds the problem for a scenario from any service-size
// sampler. CPU needs are scaled so total CPU need equals total CPU capacity;
// memory requirements are scaled so that a successful allocation leaves
// exactly scn.Slack of the total memory free. All the services' vectors are
// cut from one array, each capped so that an append copies.
func GenerateSampled(scn Scenario, g Sampler) *core.Problem {
	rng := rngPool.Get().(*rand.Rand)
	defer rngPool.Put(rng)
	rng.Seed(scn.Seed)
	p := &core.Problem{Nodes: Platform(scn, rng)}

	// The draws wait in the slots they are scaled into: the core count in
	// the aggregate CPU need, the memory fraction in the memory requirement.
	vecs := make([]float64, 8*scn.Services)
	sumCores, sumMem := 0.0, 0.0
	for j := 0; j < scn.Services; j++ {
		v := vecs[8*j : 8*j+8 : 8*j+8]
		v[6] = float64(g.SampleCores(rng))
		v[1] = g.SampleMem(rng)
		sumCores += v[6]
		sumMem += v[1]
	}

	totalCPU, totalMem := 0.0, 0.0
	for _, n := range p.Nodes {
		totalCPU += n.Aggregate[CPU]
		totalMem += n.Aggregate[Mem]
	}
	cpuScale := totalCPU / sumCores
	memScale := totalMem * (1 - scn.Slack) / sumMem

	p.Services = make([]core.Service, scn.Services)
	names := numberedNames("svc-", scn.Services)
	for j := range p.Services {
		v := vecs[8*j : 8*j+8 : 8*j+8]
		cores, needCPU, mem := v[6], v[6]*cpuScale, v[1]*memScale
		v[0], v[1], v[2], v[3], v[4], v[6] = g.ElemCPUReq(), mem, g.ElemCPUReq(), mem, needCPU/cores, needCPU
		p.Services[j] = core.Service{Name: names[j], ReqElem: v[0:2:2], ReqAgg: v[2:4:4], NeedElem: v[4:6:6], NeedAgg: v[6:8:8]}
	}
	return p
}

// PerturbCPUNeeds returns the *estimated* problem of §6.2: every service's
// aggregate CPU need is shifted by a uniform error in [-maxErr, +maxErr]
// (floored at 0.001), with elementary CPU needs scaled to keep their
// proportion to the aggregate. The input problem holds the true needs and is
// not modified.
func PerturbCPUNeeds(trueP *core.Problem, maxErr float64, rng *rand.Rand) *core.Problem {
	est := trueP.Clone()
	for j := range est.Services {
		s := &est.Services[j]
		old := s.NeedAgg[CPU]
		perturbed := old + (rng.Float64()*2-1)*maxErr
		if perturbed < 0.001 {
			perturbed = 0.001
		}
		s.NeedAgg[CPU] = perturbed
		if old > 0 {
			s.NeedElem[CPU] *= perturbed / old
		} else {
			s.NeedElem[CPU] = perturbed
		}
		if s.NeedElem[CPU] > s.NeedAgg[CPU] {
			s.NeedElem[CPU] = s.NeedAgg[CPU]
		}
	}
	return est
}
