package exp

import "time"

// Pairwise holds the two §5 comparison metrics for algorithms A and B:
// YAB is the average percent minimum-yield difference of A relative to B on
// instances both solve; SAB is the percentage of instances A solves and B
// fails minus the percentage B solves and A fails. Positive values favor A.
type Pairwise struct {
	YAB, SAB float64
	// Both counts instances solved by both; AOnly/BOnly count exclusive
	// successes.
	Both, AOnly, BOnly int
}

// ComparePair computes the pairwise metrics for algorithms a and b over a
// result set.
func (rs *ResultSet) ComparePair(a, b string) Pairwise {
	oa, ob := rs.ByAlgo[a], rs.ByAlgo[b]
	var pw Pairwise
	sumPct, n := 0.0, 0
	for i := range rs.Scenarios {
		switch {
		case oa[i].Solved && ob[i].Solved:
			pw.Both++
			if ob[i].MinYield > 1e-9 {
				sumPct += (oa[i].MinYield - ob[i].MinYield) / ob[i].MinYield * 100
				n++
			}
		case oa[i].Solved:
			pw.AOnly++
		case ob[i].Solved:
			pw.BOnly++
		}
	}
	if n > 0 {
		pw.YAB = sumPct / float64(n)
	}
	total := float64(len(rs.Scenarios))
	if total > 0 {
		pw.SAB = float64(pw.AOnly-pw.BOnly) / total * 100
	}
	return pw
}

// SuccessRate returns the fraction of instances algorithm a solves.
func (rs *ResultSet) SuccessRate(a string) float64 {
	if len(rs.Scenarios) == 0 {
		return 0
	}
	n := 0
	for _, o := range rs.ByAlgo[a] {
		if o.Solved {
			n++
		}
	}
	return float64(n) / float64(len(rs.Scenarios))
}

// MeanYield returns the average minimum yield of algorithm a over the
// instances it solves (0 if it solves none).
func (rs *ResultSet) MeanYield(a string) float64 {
	sum, n := 0.0, 0
	for _, o := range rs.ByAlgo[a] {
		if o.Solved {
			sum += o.MinYield
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanRuntime returns the average wall-clock run time of algorithm a over
// all instances (solved or not).
func (rs *ResultSet) MeanRuntime(a string) time.Duration {
	outs := rs.ByAlgo[a]
	if len(outs) == 0 {
		return 0
	}
	var sum time.Duration
	for _, o := range outs {
		sum += o.Elapsed
	}
	return sum / time.Duration(len(outs))
}

// YieldDifferenceSeries returns, per COV value (in ascending order), the
// average difference between algorithm a's minimum yield and the reference
// algorithm's minimum yield on instances both solve — the quantity plotted
// in Figures 2–4 with reference METAHVP.
func (rs *ResultSet) YieldDifferenceSeries(a, ref string) (covs, diffs []float64) {
	type acc struct {
		sum float64
		n   int
	}
	byCov := map[float64]*acc{}
	oa, or := rs.ByAlgo[a], rs.ByAlgo[ref]
	for i, s := range rs.Scenarios {
		if !oa[i].Solved || !or[i].Solved {
			continue
		}
		g, ok := byCov[s.COV]
		if !ok {
			g = &acc{}
			byCov[s.COV] = g
		}
		g.sum += oa[i].MinYield - or[i].MinYield
		g.n++
	}
	for cov := range byCov {
		covs = append(covs, cov)
	}
	sortFloats(covs)
	for _, c := range covs {
		g := byCov[c]
		diffs = append(diffs, g.sum/float64(g.n))
	}
	return covs, diffs
}

// SuccessBySlack returns, per memory-slack value in ascending order, the
// fraction of instances algorithm a solves — the §4 hardness curve (lower
// slack = harder memory packing).
func (rs *ResultSet) SuccessBySlack(a string) (slacks, rates []float64) {
	type acc struct{ ok, n int }
	bySlack := map[float64]*acc{}
	outs := rs.ByAlgo[a]
	for i, s := range rs.Scenarios {
		g, found := bySlack[s.Slack]
		if !found {
			g = &acc{}
			bySlack[s.Slack] = g
		}
		g.n++
		if outs[i].Solved {
			g.ok++
		}
	}
	for s := range bySlack {
		slacks = append(slacks, s)
	}
	sortFloats(slacks)
	for _, s := range slacks {
		g := bySlack[s]
		rates = append(rates, float64(g.ok)/float64(g.n))
	}
	return slacks, rates
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
