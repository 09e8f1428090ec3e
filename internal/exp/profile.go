package exp

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"vmalloc/internal/core"
	"vmalloc/internal/hvp"
	"vmalloc/internal/vp"
	"vmalloc/internal/workload"
)

// StrategyStats summarizes one base HVP strategy over a sweep — the §5.1
// methodology used to engineer METAHVPLIGHT: strategies are ranked first by
// success rate, then by average achieved minimum yield.
type StrategyStats struct {
	Config    vp.Config
	Solved    int
	Instances int
	MeanYield float64 // over solved instances
}

// SuccessRate returns the fraction of instances solved.
func (s *StrategyStats) SuccessRate() float64 {
	if s.Instances == 0 {
		return 0
	}
	return float64(s.Solved) / float64(s.Instances)
}

// ProfileStrategies runs every METAHVP base strategy individually over the
// scenarios and returns the statistics ranked by (success rate, mean yield)
// descending — reproducing the analysis the paper used to select the
// METAHVPLIGHT subset. workers <= 0 selects GOMAXPROCS.
func ProfileStrategies(scns []workload.Scenario, tol float64, workers int) []StrategyStats {
	configs := hvp.Strategies()
	stats := make([]StrategyStats, len(configs))
	for i, c := range configs {
		stats[i].Config = c
		stats[i].Instances = len(scns)
	}
	// Pre-generate problems once; strategies share them read-only.
	problems := make([]*core.Problem, len(scns))
	for i, s := range scns {
		problems[i] = workload.Generate(s)
	}

	forEachIndex(len(stats), workers, func(ci int) {
		st := &stats[ci]
		sum := 0.0
		for _, p := range problems {
			res := vp.Solve(p, st.Config, tol)
			if res.Solved {
				st.Solved++
				sum += res.MinYield
			}
		}
		if st.Solved > 0 {
			st.MeanYield = sum / float64(st.Solved)
		}
	})

	sort.SliceStable(stats, func(a, b int) bool {
		sa, sb := &stats[a], &stats[b]
		if sa.Solved != sb.Solved {
			return sa.Solved > sb.Solved
		}
		return sa.MeanYield > sb.MeanYield
	})
	return stats
}

// RenderProfile formats the top-k strategies as a table, marking the ones
// included in METAHVPLIGHT.
func RenderProfile(stats []StrategyStats, k int) string {
	light := map[string]bool{}
	for _, c := range hvp.LightStrategies() {
		light[c.String()] = true
	}
	if k <= 0 || k > len(stats) {
		k = len(stats)
	}
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "rank\tstrategy\tsolved\tmean min yield\tin LIGHT")
	for i := 0; i < k; i++ {
		s := &stats[i]
		mark := ""
		if light[s.Config.String()] {
			mark = "yes"
		}
		fmt.Fprintf(w, "%d\t%s\t%.1f%%\t%.4f\t%s\n",
			i+1, s.Config, s.SuccessRate()*100, s.MeanYield, mark)
	}
	w.Flush()
	return sb.String()
}

// LightCoverage reports what fraction of the top-k profiled strategies are
// members of the METAHVPLIGHT subset — the §5.1 design validation.
func LightCoverage(stats []StrategyStats, k int) float64 {
	light := map[string]bool{}
	for _, c := range hvp.LightStrategies() {
		light[c.String()] = true
	}
	if k <= 0 || k > len(stats) {
		k = len(stats)
	}
	n := 0
	for i := 0; i < k; i++ {
		if light[stats[i].Config.String()] {
			n++
		}
	}
	return float64(n) / float64(k)
}
