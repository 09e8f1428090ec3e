// Command vmalloc solves one resource-allocation problem instance with any
// registered algorithm and prints the placement and achieved minimum yield.
//
// Usage:
//
//	vmalloc -in problem.json [-algo METAHVPLIGHT] [-seed 1]
//	vmalloc -demo            # run the paper's Figure 1 example
//
// One-shot runs compose with the durable daemon through cluster snapshots:
//
//	vmalloc -in problem.json -state-out cluster.json   # solve, save as cluster state
//	vmalloc -state-in cluster.json -state-out c2.json  # load state, run one epoch, save
//	vmallocd -dir data -state-in cluster.json          # boot the daemon from it
//
// A state file is the same stable ClusterState JSON the daemon snapshots and
// serves at GET /v1/snapshot, so the three tools round-trip freely.
package main

import (
	"flag"
	"fmt"
	"os"

	"vmalloc"
	"vmalloc/internal/lp"
	"vmalloc/internal/relax"
	"vmalloc/internal/server"
)

func main() {
	var (
		in       = flag.String("in", "", "problem JSON file (see experiments -exp gen)")
		algo     = flag.String("algo", vmalloc.AlgoMetaHVPLight, "algorithm name")
		seed     = flag.Int64("seed", 1, "seed for randomized algorithms")
		bound    = flag.Bool("bound", false, "also print the LP relaxation upper bound")
		demo     = flag.Bool("demo", false, "solve the paper's Figure 1 example")
		stateIn  = flag.String("state-in", "", "cluster state JSON to load (runs one reallocation epoch)")
		stateOut = flag.String("state-out", "", "write the resulting cluster state JSON here")
		budget   = flag.Int("budget", -1, "with -state-in: run a repair epoch with this migration budget instead of a full reallocation (-1 = full)")
		mpsOut   = flag.String("mps-out", "", "write the problem's LP relaxation (Eqs. 3-7) to this file in MPS format and continue")
	)
	flag.Parse()

	if *stateIn != "" {
		runStateEpoch(*stateIn, *stateOut, *budget)
		return
	}

	var p *vmalloc.Problem
	switch {
	case *demo:
		p = figure1()
	case *in != "":
		var err error
		p, err = vmalloc.LoadProblem(*in)
		if err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "vmalloc: need -in FILE, -state-in FILE or -demo; known algorithms:")
		for _, a := range vmalloc.Algorithms() {
			fmt.Fprintln(os.Stderr, "  ", a)
		}
		os.Exit(2)
	}

	if *mpsOut != "" {
		if err := writeMPSFile(*mpsOut, p); err != nil {
			fatal(err)
		}
		fmt.Printf("mps written:    %s\n", *mpsOut)
	}

	res, err := vmalloc.Solve(*algo, p, &vmalloc.Options{Seed: *seed})
	if err != nil {
		fatal(err)
	}
	if !res.Solved {
		fmt.Printf("%s: no feasible placement found (%d nodes, %d services)\n",
			*algo, p.NumNodes(), p.NumServices())
		os.Exit(1)
	}
	if *stateOut != "" {
		if err := saveSolvedState(*stateOut, p, res); err != nil {
			fatal(err)
		}
		fmt.Printf("state written:  %s\n", *stateOut)
	}
	fmt.Printf("algorithm:      %s\n", *algo)
	fmt.Printf("minimum yield:  %.4f\n", res.MinYield)
	if *bound {
		if ub, err := vmalloc.RelaxedUpperBound(p); err == nil && ub >= 0 {
			fmt.Printf("LP upper bound: %.4f\n", ub)
		}
	}
	fmt.Println("placement:")
	for j, h := range res.Placement {
		name := p.Services[j].Name
		if name == "" {
			name = fmt.Sprintf("service-%d", j)
		}
		node := p.Nodes[h].Name
		if node == "" {
			node = fmt.Sprintf("node-%d", h)
		}
		fmt.Printf("  %-16s -> %-12s yield %.4f\n", name, node, res.Yields[j])
	}
}

// runStateEpoch loads a cluster state, runs one epoch on it (full
// reallocation or bounded repair) and optionally saves the new state — the
// one-shot counterpart of POST /v1/reallocate on the daemon.
func runStateEpoch(stateIn, stateOut string, budget int) {
	st, err := loadState(stateIn)
	if err != nil {
		fatal(err)
	}
	c, err := vmalloc.RestoreCluster(st, nil)
	if err != nil {
		fatal(err)
	}
	var ep *vmalloc.ClusterEpoch
	kind := "reallocation"
	if budget >= 0 {
		ep = c.Repair(budget)
		kind = fmt.Sprintf("repair (budget %d)", budget)
	} else {
		ep = c.Reallocate()
	}
	fmt.Printf("cluster:        %d nodes, %d services\n", len(st.Nodes), len(st.Services))
	if !ep.Result.Solved {
		fmt.Printf("%s epoch failed: previous placement kept\n", kind)
	} else {
		fmt.Printf("%s epoch: min yield %.4f, %d migrations\n", kind, ep.Result.MinYield, ep.Migrations)
	}
	if stateOut != "" {
		if err := saveState(stateOut, c.State()); err != nil {
			fatal(err)
		}
		fmt.Printf("state written:  %s\n", stateOut)
	}
	if !ep.Result.Solved {
		os.Exit(1)
	}
}

// writeMPSFile dumps the paper's rational relaxation (the same model
// internal/relax solves for LP rosters and bounds) in MPS format, so the
// instance can be cross-checked against an external solver.
func writeMPSFile(path string, p *vmalloc.Problem) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := lp.WriteMPS(f, relax.Encode(p).LP); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// saveSolvedState converts a solved one-shot problem into daemon-ready
// cluster state: every service is installed with its solved placement.
func saveSolvedState(path string, p *vmalloc.Problem, res *vmalloc.Result) error {
	rs, err := vmalloc.RestoreShardedCluster(p.Nodes, []*vmalloc.ClusterState{nil}, nil)
	if err != nil {
		return err
	}
	for j := range p.Services {
		if err := rs.ShardAdd(0, j, res.Placement[j], p.Services[j], p.Services[j]); err != nil {
			return err
		}
	}
	return saveState(path, rs.State())
}

// loadState/saveState go through the same DecodeState/EncodeState the
// daemon uses, so the CLI and vmallocd cannot drift on the shared format.
func loadState(path string) (*vmalloc.ClusterState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	st, err := server.DecodeState(data)
	if err != nil {
		return nil, fmt.Errorf("state %s: %w", path, err)
	}
	return st, nil
}

func saveState(path string, st *vmalloc.ClusterState) error {
	data, err := server.EncodeState(st)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func figure1() *vmalloc.Problem {
	return &vmalloc.Problem{
		Nodes: []vmalloc.Node{
			{Name: "A", Elementary: vmalloc.Of(0.8, 1.0), Aggregate: vmalloc.Of(3.2, 1.0)},
			{Name: "B", Elementary: vmalloc.Of(1.0, 0.5), Aggregate: vmalloc.Of(2.0, 0.5)},
		},
		Services: []vmalloc.Service{{
			Name:    "svc",
			ReqElem: vmalloc.Of(0.5, 0.5), ReqAgg: vmalloc.Of(1.0, 0.5),
			NeedElem: vmalloc.Of(0.5, 0.0), NeedAgg: vmalloc.Of(1.0, 0.0),
		}},
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vmalloc:", err)
	os.Exit(1)
}
