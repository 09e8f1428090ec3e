package exp

import (
	"vmalloc/internal/sched"
	"vmalloc/internal/workload"
)

// ErrorCurves are the figure-5/6/7 series at one maximum-error value,
// averaged over the instances whose placement succeeded: the
// perfect-knowledge yield ("ideal"), the zero-knowledge baseline, and the
// ALLOCWEIGHTS/EQUALWEIGHTS yields for each mitigation threshold.
type ErrorCurves struct {
	MaxErr        float64
	Ideal         float64
	ZeroKnowledge float64
	// Weight[t] / Equal[t] hold the average minimum achieved yield when
	// estimates are first rounded up to threshold t.
	Weight map[float64]float64
	Equal  map[float64]float64
	// Caps is ALLOCCAPS without mitigation, reproducing the §6.2 claim that
	// hard caps collapse under error.
	Caps float64
	// Instances is the number of scenarios contributing to the averages.
	Instances int
}

// ErrorExperiment configures a §6.2 sweep. Every placement, from true or
// perturbed needs, is computed by METAHVPLIGHT: the paper used METAHVP, and
// LIGHT is its faster strategy subset.
type ErrorExperiment struct {
	Scenarios  []workload.Scenario
	MaxErrors  []float64
	Thresholds []float64
	// Workers bounds the worker pool; <= 0 selects GOMAXPROCS.
	Workers int
	// SeedSalt decorrelates the perturbation stream from the instance seed.
	SeedSalt int64
}

// Run executes the sweep and returns one ErrorCurves per max-error value.
func (e *ErrorExperiment) Run() []ErrorCurves {
	cells := make([]errorCell, len(e.MaxErrors)*len(e.Scenarios)) // [errIdx*len(Scenarios)+scnIdx]
	forEachIndex(len(cells), e.Workers, func(i int) {
		ei, si := i/len(e.Scenarios), i%len(e.Scenarios)
		cells[i] = e.runOne(e.MaxErrors[ei], e.Scenarios[si])
	})

	out := make([]ErrorCurves, len(e.MaxErrors))
	for ei, maxErr := range e.MaxErrors {
		c := ErrorCurves{MaxErr: maxErr, Weight: map[float64]float64{}, Equal: map[float64]float64{}}
		for _, th := range e.Thresholds {
			c.Weight[th] = 0
			c.Equal[th] = 0
		}
		for _, cl := range cells[ei*len(e.Scenarios) : (ei+1)*len(e.Scenarios)] {
			if !cl.ok {
				continue
			}
			c.Instances++
			c.Ideal += cl.ideal
			c.ZeroKnowledge += cl.zero
			c.Caps += cl.caps
			for _, th := range e.Thresholds {
				c.Weight[th] += cl.weight[th]
				c.Equal[th] += cl.equal[th]
			}
		}
		if c.Instances > 0 {
			n := float64(c.Instances)
			c.Ideal /= n
			c.ZeroKnowledge /= n
			c.Caps /= n
			for _, th := range e.Thresholds {
				c.Weight[th] /= n
				c.Equal[th] /= n
			}
		}
		out[ei] = c
	}
	return out
}

// errorCell is one (scenario, maxErr) evaluation; ok is false when the
// placer cannot solve the instance even from its true needs.
type errorCell struct {
	ideal, zero, caps float64
	weight, equal     map[float64]float64
	ok                bool
}

// runOne evaluates one (scenario, maxErr) cell.
func (e *ErrorExperiment) runOne(maxErr float64, scn workload.Scenario) (c errorCell) {
	placer := MetaHVPLightAlgo(0)
	trueP := workload.Generate(scn)
	c.weight = map[float64]float64{}
	c.equal = map[float64]float64{}

	// Perfect knowledge: place and cap with the true needs.
	idealRes := placer.Run(trueP)
	if !idealRes.Solved {
		return c // skip instances the placer cannot solve even without error
	}
	c.ideal = idealRes.MinYield

	// Zero knowledge: spread evenly, equal weights.
	zkPl := sched.ZeroKnowledgePlacement(trueP)
	if zkPl.Complete() {
		c.zero = sched.EvaluatePlacement(trueP, trueP, zkPl, sched.EqualWeights, workload.CPU)
	}

	rng := workload.NewRand(scn.Seed ^ e.SeedSalt ^ int64(maxErr*1e6))
	est := workload.PerturbCPUNeeds(trueP, maxErr, rng)

	// Unmitigated hard caps.
	if res := placer.Run(est); res.Solved {
		c.caps = sched.EvaluatePlacement(trueP, est, res.Placement, sched.AllocCaps, workload.CPU)
	}

	for _, th := range e.Thresholds {
		estT := est
		if th > 0 {
			estT = sched.ApplyThreshold(est, workload.CPU, th)
		}
		res := placer.Run(estT)
		if !res.Solved {
			// Mitigated placement failed: record zero yields for this
			// threshold (the allocation attempt failed outright).
			c.weight[th] = 0
			c.equal[th] = 0
			continue
		}
		c.weight[th] = sched.EvaluatePlacement(trueP, estT, res.Placement, sched.AllocWeights, workload.CPU)
		c.equal[th] = sched.EvaluatePlacement(trueP, estT, res.Placement, sched.EqualWeights, workload.CPU)
	}
	c.ok = true
	return c
}
