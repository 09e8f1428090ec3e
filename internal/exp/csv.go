package exp

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteResultsCSV emits the raw sweep results, one row per (scenario,
// algorithm): ready for external plotting tools.
func (rs *ResultSet) WriteResultsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"hosts", "services", "cov", "slack", "mode", "seed",
		"algorithm", "solved", "min_yield", "runtime_sec", "allocs", "alloc_bytes"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, name := range rs.Algos {
		outs := rs.ByAlgo[name]
		for i, s := range rs.Scenarios {
			row := []string{
				strconv.Itoa(s.Hosts),
				strconv.Itoa(s.Services),
				formatF(s.COV),
				formatF(s.Slack),
				s.Mode.String(),
				strconv.FormatInt(s.Seed, 10),
				name,
				strconv.FormatBool(outs[i].Solved),
				formatF(outs[i].MinYield),
				formatF(outs[i].Elapsed.Seconds()),
				strconv.FormatUint(outs[i].Allocs, 10),
				strconv.FormatUint(outs[i].AllocBytes, 10),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteErrorCurvesCSV emits the Figures 5–7 series as CSV.
func WriteErrorCurvesCSV(w io.Writer, curves []ErrorCurves, thresholds []float64) error {
	cw := csv.NewWriter(w)
	header := []string{"max_error", "ideal", "zero_knowledge", "caps"}
	for _, th := range thresholds {
		header = append(header,
			fmt.Sprintf("weight_min_%.2f", th),
			fmt.Sprintf("equal_min_%.2f", th))
	}
	header = append(header, "instances")
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, c := range curves {
		row := []string{formatF(c.MaxErr), formatF(c.Ideal), formatF(c.ZeroKnowledge), formatF(c.Caps)}
		for _, th := range thresholds {
			row = append(row, formatF(c.Weight[th]), formatF(c.Equal[th]))
		}
		row = append(row, strconv.Itoa(c.Instances))
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatF(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
