// Command simulate runs the dynamic hosting-platform simulation (the §8
// future-work system) on the persistent allocation engine: services arrive
// and depart over time, METAHVPLIGHT reallocates every epoch on warm solver
// state, CPU-need estimates are noisy, and the mitigation threshold is fixed
// or adaptive. Each epoch races the strategy roster across GOMAXPROCS
// workers; the trajectory is the same at every core count.
//
// Usage:
//
//	simulate -hosts 16 -rate 4 -lifetime 10 -horizon 200 -epoch 5 \
//	         -maxerr 0.2 -threshold adaptive
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"

	"vmalloc/internal/platform"
	"vmalloc/internal/workload"
)

func main() {
	var (
		hosts     = flag.Int("hosts", 16, "number of nodes")
		cov       = flag.Float64("cov", 0.5, "node capacity coefficient of variation")
		rate      = flag.Float64("rate", 4, "service arrival rate (per time unit)")
		lifetime  = flag.Float64("lifetime", 10, "mean service lifetime")
		horizon   = flag.Float64("horizon", 200, "simulated duration")
		epoch     = flag.Float64("epoch", 5, "reallocation period")
		maxErr    = flag.Float64("maxerr", 0, "max CPU-need estimation error")
		threshold = flag.String("threshold", "0", "mitigation threshold (number or 'adaptive')")
		seed      = flag.Int64("seed", 1, "simulation seed")
		repair    = flag.Bool("repair", false, "use migration-bounded incremental repair instead of full reallocation")
		budget    = flag.Int("budget", -1, "migrations allowed per repair epoch (-1 = unlimited)")
	)
	flag.Parse()

	th := 0.0
	if *threshold == "adaptive" {
		th = platform.AdaptiveThreshold
	} else {
		v, err := strconv.ParseFloat(*threshold, 64)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simulate: bad -threshold:", err)
			os.Exit(2)
		}
		th = v
	}

	nodes := workload.Platform(workload.Scenario{
		Hosts: *hosts, COV: *cov, Mode: workload.HeteroBoth, Seed: *seed,
	}, rand.New(rand.NewSource(*seed)))

	stats, err := platform.Run(platform.Config{
		Nodes:           nodes,
		ArrivalRate:     *rate,
		MeanLifetime:    *lifetime,
		Horizon:         *horizon,
		Epoch:           *epoch,
		MaxErr:          *maxErr,
		Threshold:       th,
		UseRepair:       *repair,
		MigrationBudget: *budget,
		Seed:            *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}

	fmt.Printf("arrivals=%d rejections=%d (%.1f%%) departures=%d migrations=%d reallocs=%d failed-epochs=%d\n",
		stats.Arrivals, stats.Rejections, stats.RejectionRate()*100,
		stats.Departures, stats.Migrations, stats.Reallocs, stats.FailedEpoch)
	fmt.Printf("mean minimum yield over epochs: %.4f\n\n", stats.MeanMinYield())

	fmt.Println("time     services  minyield  meanyield  migrations  threshold")
	for _, s := range stats.Samples {
		fmt.Printf("%7.1f  %8d  %.4f    %.4f     %10d  %.4f\n",
			s.Time, s.Services, s.MinYield, s.MeanYield, s.Migrations, s.Threshold)
	}
}
