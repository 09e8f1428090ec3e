package exp

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"vmalloc/internal/platform"
	"vmalloc/internal/workload"
)

// OnlineSpec sweeps the §8 online hosting platform (the persistent
// allocation engine driven by the discrete-event simulator) across churn
// levels: one row per arrival rate, averaged over seeds. It is the online
// counterpart of GridSpec — where the offline tables ask "how good is a
// placement", this table asks "how good does the platform stay under
// sustained arrivals and departures".
type OnlineSpec struct {
	// Hosts and COV shape the platform (HeteroBoth, seeded per run).
	Hosts int
	COV   float64
	// Rates is the churn axis: mean service arrivals per time unit.
	Rates []float64
	// Horizon and Epoch parameterize the simulation (defaults: 100, 5);
	// service lifetimes have mean meanLifetime.
	Horizon float64
	Epoch   float64
	// MaxErr and Threshold configure the §6 estimate-error model
	// (Threshold may be platform.AdaptiveThreshold).
	MaxErr    float64
	Threshold float64
	// Seeds drive the per-rate replications.
	Seeds []int64
}

// OnlineRow aggregates the runs of one arrival rate.
type OnlineRow struct {
	Rate float64
	// MeanServices is the average live-service count over epoch samples.
	MeanServices float64
	// MeanMinYield averages the sampled minimum yield over solved epochs.
	MeanMinYield float64
	// RejectionRate is rejected arrivals over arrivals.
	RejectionRate float64
	// MigrationsPerEpoch is the average migration count per reallocation.
	MigrationsPerEpoch float64
	// FailedEpochRate is the fraction of reallocations the placer lost.
	FailedEpochRate float64
}

// meanLifetime is the mean service lifetime of the online and sharded
// sweeps: time units for OnlineSpec, epochs for ShardedSpec.
const meanLifetime = 10

func (spec OnlineSpec) defaults() OnlineSpec {
	if spec.Horizon <= 0 {
		spec.Horizon = 100
	}
	if spec.Epoch <= 0 {
		spec.Epoch = 5
	}
	if len(spec.Seeds) == 0 {
		spec.Seeds = []int64{1}
	}
	return spec
}

// Run executes the sweep, one simulation per (rate, seed).
func (spec OnlineSpec) Run() ([]OnlineRow, error) {
	spec = spec.defaults()
	rows := make([]OnlineRow, 0, len(spec.Rates))
	for _, rate := range spec.Rates {
		row := OnlineRow{Rate: rate}
		for _, seed := range spec.Seeds {
			nodes := workload.Platform(workload.Scenario{
				Hosts: spec.Hosts, COV: spec.COV, Mode: workload.HeteroBoth, Seed: seed,
			}, workload.NewRand(seed))
			st, err := platform.Run(platform.Config{
				Nodes:        nodes,
				ArrivalRate:  rate,
				MeanLifetime: meanLifetime,
				Horizon:      spec.Horizon,
				Epoch:        spec.Epoch,
				MaxErr:       spec.MaxErr,
				Threshold:    spec.Threshold,
				Seed:         seed,
			})
			if err != nil {
				return nil, fmt.Errorf("exp: online run rate=%v seed=%d: %v", rate, seed, err)
			}
			services := 0
			for _, s := range st.Samples {
				services += s.Services
			}
			if n := len(st.Samples); n > 0 {
				row.MeanServices += float64(services) / float64(n)
			}
			row.MeanMinYield += st.MeanMinYield()
			row.RejectionRate += st.RejectionRate()
			if st.Reallocs > 0 {
				row.MigrationsPerEpoch += float64(st.Migrations) / float64(st.Reallocs)
				row.FailedEpochRate += float64(st.FailedEpoch) / float64(st.Reallocs)
			}
		}
		n := float64(len(spec.Seeds))
		row.MeanServices /= n
		row.MeanMinYield /= n
		row.RejectionRate /= n
		row.MigrationsPerEpoch /= n
		row.FailedEpochRate /= n
		rows = append(rows, row)
	}
	return rows, nil
}

// OnlineTable renders the churn sweep: steady-state yield, migration load
// and rejection rate against arrival rate.
func OnlineTable(rows []OnlineRow) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "rate\tservices\tmin yield\trejected\tmigr/epoch\tfailed epochs")
	for _, r := range rows {
		fmt.Fprintf(w, "%.2f\t%.1f\t%.4f\t%.1f%%\t%.1f\t%.1f%%\n",
			r.Rate, r.MeanServices, r.MeanMinYield,
			r.RejectionRate*100, r.MigrationsPerEpoch, r.FailedEpochRate*100)
	}
	w.Flush()
	return sb.String()
}
