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

	"vmalloc/internal/core"
	"vmalloc/internal/vec"
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

// Platform generates the node set for a scenario.
func Platform(scn Scenario, rng *rand.Rand) []core.Node {
	nodes := make([]core.Node, scn.Hosts)
	for h := range nodes {
		cpu := CapacityMedian
		mem := CapacityMedian
		if scn.Mode != HeteroCPUHomogeneous {
			cpu = truncNormal(rng, CapacityMedian, scn.COV)
		}
		if scn.Mode != HeteroMemHomogeneous {
			mem = truncNormal(rng, CapacityMedian, scn.COV)
		}
		nodes[h] = core.Node{
			Name:       fmt.Sprintf("node-%d", h),
			Elementary: vec.Of(cpu/CoresPerNode, mem),
			Aggregate:  vec.Of(cpu, mem),
		}
	}
	return nodes
}

// Sampler provides the two service-size marginals the paper takes from the
// Google dataset, plus the common elementary CPU requirement. Google
// implements it with parametric distributions; trace-derived empirical
// samplers can implement it too.
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

// Generate builds the full problem for a scenario using the default Google
// marginals.
func Generate(scn Scenario) *core.Problem {
	return GenerateWith(scn, DefaultGoogle())
}

// GenerateWith builds the problem for a scenario from explicit Google
// marginals. See GenerateSampled.
func GenerateWith(scn Scenario, g *Google) *core.Problem {
	return GenerateSampled(scn, g)
}

// GenerateSampled builds the problem for a scenario from any service-size
// sampler. CPU needs are scaled so total CPU need equals total CPU capacity;
// memory requirements are scaled so that a successful allocation leaves
// exactly scn.Slack of the total memory free.
func GenerateSampled(scn Scenario, g Sampler) *core.Problem {
	rng := rand.New(rand.NewSource(scn.Seed))
	p := &core.Problem{Nodes: Platform(scn, rng)}

	cores := make([]int, scn.Services)
	mems := make([]float64, scn.Services)
	sumCores, sumMem := 0.0, 0.0
	for j := 0; j < scn.Services; j++ {
		cores[j] = g.SampleCores(rng)
		mems[j] = g.SampleMem(rng)
		sumCores += float64(cores[j])
		sumMem += mems[j]
	}

	totals := vec.New(Dims)
	for _, n := range p.Nodes {
		totals.AccumAdd(n.Aggregate)
	}
	cpuScale := totals[CPU] / sumCores
	memScale := totals[Mem] * (1 - scn.Slack) / sumMem

	for j := 0; j < scn.Services; j++ {
		needCPU := float64(cores[j]) * cpuScale
		mem := mems[j] * memScale
		p.Services = append(p.Services, core.Service{
			Name:     fmt.Sprintf("svc-%d", j),
			ReqElem:  vec.Of(g.ElemCPUReq(), mem),
			ReqAgg:   vec.Of(g.ElemCPUReq(), mem),
			NeedElem: vec.Of(needCPU/float64(cores[j]), 0),
			NeedAgg:  vec.Of(needCPU, 0),
		})
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
