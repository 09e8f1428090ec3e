package exp

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"text/tabwriter"
	"time"

	"vmalloc/internal/core"
	"vmalloc/internal/shard"
	"vmalloc/internal/vec"
	"vmalloc/internal/workload"
)

// ShardedSpec sweeps the sharded serving tier across shard counts under
// sustained churn: one row per K, averaged over seeds. It is the scaling
// companion of OnlineSpec — where the online table asks "how good does the
// platform stay under churn", this one asks "what do K placement domains
// buy (epoch latency) and cost (partitioned packing, rebalance moves) on
// the same park".
type ShardedSpec struct {
	// Hosts and COV shape the park (HeteroBoth, seeded per run).
	Hosts int
	COV   float64
	// Shards is the K axis (values must satisfy 1 <= K <= Hosts).
	Shards []int
	// ArrivalsPerEpoch is the mean Poisson arrival count between epochs
	// (default 8); lifetimes are exponential with mean meanLifetime epochs.
	ArrivalsPerEpoch float64
	// Epochs is the horizon (default 40).
	Epochs int
	// Seeds drive the replications (default {1}).
	Seeds []int64
}

// ShardedRow aggregates the runs of one shard count.
type ShardedRow struct {
	Shards int
	// MeanServices is the average live-service count at epoch boundaries.
	MeanServices float64
	// MeanMinYield averages the merged epoch min yield over solved epochs.
	MeanMinYield float64
	// RejectionRate is rejected arrivals over arrivals.
	RejectionRate float64
	// MigrationsPerEpoch counts placement changes per epoch (cross-shard
	// moves included).
	MigrationsPerEpoch float64
	// RebalancePerEpoch counts cross-shard rebalance moves per epoch.
	RebalancePerEpoch float64
	// EpochMillis is the mean wall-clock reallocation latency.
	EpochMillis float64
}

func (spec ShardedSpec) defaults() ShardedSpec {
	if spec.Epochs <= 0 {
		spec.Epochs = 40
	}
	if spec.ArrivalsPerEpoch <= 0 {
		spec.ArrivalsPerEpoch = 8
	}
	if len(spec.Seeds) == 0 {
		spec.Seeds = []int64{1}
	}
	return spec
}

// shardedChurnService draws a small service with a mildly erroneous
// estimate.
func shardedChurnService(rng *rand.Rand) (trueSvc, estSvc core.Service) {
	req := vec.Of(0.01+0.03*rng.Float64(), 0.02+0.06*rng.Float64())
	need := vec.Of(0.05+0.2*rng.Float64(), 0.02*rng.Float64())
	trueSvc = core.Service{
		ReqElem: req.Clone(), ReqAgg: req.Clone(),
		NeedElem: need.Clone(), NeedAgg: need.Clone(),
	}
	estSvc = trueSvc
	estSvc.NeedAgg = trueSvc.NeedAgg.Scale(1 + 0.2*(rng.Float64()-0.5))
	estSvc.NeedElem = trueSvc.NeedElem.Scale(1 + 0.2*(rng.Float64()-0.5))
	return trueSvc, estSvc
}

// Run executes the sweep, one churn simulation per (K, seed). All draws
// come from per-run seeded RNGs, so rows are reproducible.
func (spec ShardedSpec) Run() ([]ShardedRow, error) {
	spec = spec.defaults()
	rows := make([]ShardedRow, 0, len(spec.Shards))
	for _, k := range spec.Shards {
		row := ShardedRow{Shards: k}
		for _, seed := range spec.Seeds {
			nodes := workload.Platform(workload.Scenario{
				Hosts: spec.Hosts, COV: spec.COV, Mode: workload.HeteroBoth, Seed: seed,
			}, workload.NewRand(seed))
			r, err := shard.New(shard.Config{
				Nodes:  nodes,
				Shards: k,
				Seed:   seed,
				Now:    time.Now,
			})
			if err != nil {
				return nil, fmt.Errorf("exp: sharded run K=%d seed=%d: %v", k, seed, err)
			}
			rng := workload.NewRand(seed * 7919)
			type departure struct {
				id    int
				epoch int
			}
			var pending []departure
			arrivals, rejected, migrations, services := 0, 0, 0, 0
			yieldSum, yieldN := 0.0, 0
			moved := 0
			var epochTime time.Duration
			for e := 0; e < spec.Epochs; e++ {
				// Departures due this epoch.
				keep := pending[:0]
				for _, d := range pending {
					if d.epoch <= e {
						r.Remove(d.id)
					} else {
						keep = append(keep, d)
					}
				}
				pending = keep
				// Poisson arrivals with exponential lifetimes.
				n := poisson(rng, spec.ArrivalsPerEpoch)
				for i := 0; i < n; i++ {
					arrivals++
					trueSvc, estSvc := shardedChurnService(rng)
					id, _, _, ok := r.Add(trueSvc, estSvc)
					if !ok {
						rejected++
						continue
					}
					life := int(math.Ceil(rng.ExpFloat64() * meanLifetime))
					pending = append(pending, departure{id: id, epoch: e + 1 + life})
				}
				start := time.Now()
				ep := r.Reallocate()
				epochTime += time.Since(start)
				if ep.Result.Solved && len(ep.IDs) > 0 {
					yieldSum += ep.Result.MinYield
					yieldN++
				}
				migrations += ep.Migrations
				moved += ep.RebalanceMoves
				services += r.Len()
			}
			row.MeanServices += float64(services) / float64(spec.Epochs)
			if yieldN > 0 {
				row.MeanMinYield += yieldSum / float64(yieldN)
			}
			if arrivals > 0 {
				row.RejectionRate += float64(rejected) / float64(arrivals)
			}
			row.MigrationsPerEpoch += float64(migrations) / float64(spec.Epochs)
			row.RebalancePerEpoch += float64(moved) / float64(spec.Epochs)
			row.EpochMillis += float64(epochTime.Milliseconds()) / float64(spec.Epochs)
		}
		n := float64(len(spec.Seeds))
		row.MeanServices /= n
		row.MeanMinYield /= n
		row.RejectionRate /= n
		row.MigrationsPerEpoch /= n
		row.RebalancePerEpoch /= n
		row.EpochMillis /= n
		rows = append(rows, row)
	}
	return rows, nil
}

// poisson draws a Poisson variate by Knuth's product method (mean rates
// here are small).
func poisson(rng *rand.Rand, mean float64) int {
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// ShardedTable renders the shard-count sweep: yield, churn response and
// epoch latency against K.
func ShardedTable(rows []ShardedRow) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "shards\tservices\tmin yield\trejected\tmigr/epoch\trebal/epoch\tepoch ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%.1f\t%.4f\t%.1f%%\t%.1f\t%.2f\t%.1f\n",
			r.Shards, r.MeanServices, r.MeanMinYield,
			r.RejectionRate*100, r.MigrationsPerEpoch, r.RebalancePerEpoch, r.EpochMillis)
	}
	w.Flush()
	return sb.String()
}
