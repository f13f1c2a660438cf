// Command bookleaf runs the BookLeaf mini-app: one of the four standard
// shock-hydrodynamics problems on a 2-D unstructured quadrilateral
// mesh, serial, threaded ("hybrid") or across goroutine ranks (the
// flat-MPI analogue), printing the per-kernel timing breakdown the
// paper reports in Table II plus a conservation audit.
//
// Usage:
//
//	bookleaf -problem noh -nx 100 -ny 100
//	bookleaf -deck decks/sod.deck -profile sod.csv
//	bookleaf -deck decks/sod.deck -maxsteps 20 -ranks 2
//	bookleaf -problem sod -nx 400 -ny 4 -ranks 8 -partitioner metis
//	bookleaf -problem sod -nx 400 -ny 4 -ranks 4 -checkpoint sod.ckpt -checkpoint-every 100
//	bookleaf -problem sod -nx 400 -ny 4 -ranks 8 -resume sod.ckpt
//	bookleaf -problem noh -nx 120 -ny 120 -threads 4 -cpuprofile cpu.out -memprofile mem.out
//
// A flag set on the command line overrides the deck's key for the same
// setting; the flag defaults are the deck defaults. Checkpoints are
// written atomically and are partition-independent: a dump written at
// one rank count resumes at any other. Transient failures (timestep
// collapse, tangled element, non-finite field) are retried from a
// rolling in-memory snapshot.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"bookleaf"
	"bookleaf/internal/config"
	"bookleaf/internal/dump"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bookleaf:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		deckPath    = flag.String("deck", "", "input deck file (a flag set on the command line overrides its key)")
		problem     = flag.String("problem", "sod", "problem: sod, noh, sedov, saltzmann, waterair, nohdisc")
		nx          = flag.Int("nx", 100, "cells in x")
		ny          = flag.Int("ny", 10, "cells in y")
		tend        = flag.Float64("tend", 0, "end time (0 = problem default)")
		maxSteps    = flag.Int("maxsteps", 0, "step cap (0 = none)")
		ranks       = flag.Int("ranks", 1, "goroutine ranks (flat-MPI analogue)")
		threads     = flag.Int("threads", 1, "threads per rank (OpenMP analogue)")
		partitioner = flag.String("partitioner", "rcb", "rcb or metis")
		reorder     = flag.String("reorder", "", "mesh renumbering for locality: none, hilbert, rcm (default none)")
		aleMode     = flag.String("ale", "", "ALE mode: eulerian, smoothed (default Lagrangian)")
		aleFreq     = flag.Int("alefreq", 1, "remap every n steps")
		hourglass   = flag.String("hourglass", "", "override: none, filter, subzonal")
		scatterAcc  = flag.Bool("scatteracc", false, "reference serial acceleration scatter (paper-fidelity ablation)")
		fuse        = flag.Bool("fuse", true, "fused element passes (bitwise-identical; -fuse=false selects the paper's one-kernel-per-phase ablation)")
		sedovE      = flag.Float64("sedov-energy", 0, "Sedov blast energy override")
		cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
		profileOut  = flag.String("profile", "", "write final 1-D profile CSV to this file")
		vtkOut      = flag.String("vtk", "", "write the final state as a legacy VTK file")
		ckpt        = flag.String("checkpoint", "", "write a restart dump to this file")
		ckptEvery   = flag.Int("checkpoint-every", 0, "also dump every n steps")
		resume      = flag.String("resume", "", "restore a restart dump before running")
		superviseOn = flag.Bool("supervise", false, "enable the rank-supervision ladder (retry / replace / checkpoint-then-abort)")
		repartAt    = flag.Int("repart-at", 0, "force one online repartition at this step (0 = off)")
		repartRanks = flag.Int("repart-ranks", 0, "rank count after the next repartition (0 = keep)")
		history     = flag.Int("history", 0, "print a step record every n steps")
		tracePfx    = flag.String("trace", "", "write per-rank Chrome trace files <prefix>.rank<N>.trace.json (merge with bleaf-trace)")
		metricsOut  = flag.String("metrics", "", "write a machine-readable metrics.json to this file")
		probeEvery  = flag.Int("probe-every", 0, "sample mass/energy conservation probes every n steps (0 = off)")
		quiet       = flag.Bool("quiet", false, "suppress the kernel breakdown")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		// Opened before the run, so an unwritable path fails at once; a
		// failed write at exit fails the command as well.
		f, ferr := os.Create(*memProfile)
		if ferr != nil {
			return ferr
		}
		defer func() {
			runtime.GC() // materialise the final live heap
			werr := pprof.WriteHeapProfile(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if err == nil && werr != nil {
				err = fmt.Errorf("memprofile: %w", werr)
			}
		}()
	}

	deck, err := loadDeck(*deckPath)
	if err != nil {
		return err
	}
	cfg, err := bookleaf.ConfigFromDeck(deck)
	if err != nil {
		return err
	}
	if unused := deck.Unused(); len(unused) > 0 {
		fmt.Fprintf(os.Stderr, "warning: unused deck keys: %v\n", unused)
	}
	supervise := func() *bookleaf.SuperviseConfig {
		if cfg.Supervise == nil {
			cfg.Supervise = &bookleaf.SuperviseConfig{}
		}
		return cfg.Supervise
	}
	// One rule for flags and deck: a flag set on the command line
	// overwrites its field, whatever the deck says.
	override := map[string]func(){
		"problem":          func() { cfg.Problem = *problem },
		"nx":               func() { cfg.NX = *nx },
		"ny":               func() { cfg.NY = *ny },
		"tend":             func() { cfg.TEnd = *tend },
		"maxsteps":         func() { cfg.MaxSteps = *maxSteps },
		"ranks":            func() { cfg.Ranks = *ranks },
		"threads":          func() { cfg.Threads = *threads },
		"partitioner":      func() { cfg.Partitioner = *partitioner },
		"reorder":          func() { cfg.Reorder = *reorder },
		"ale":              func() { cfg.ALE = *aleMode },
		"alefreq":          func() { cfg.ALEFreq = *aleFreq },
		"hourglass":        func() { cfg.Hourglass = *hourglass },
		"scatteracc":       func() { cfg.ScatterAcc = *scatterAcc },
		"fuse":             func() { cfg.NoFuse = !*fuse },
		"sedov-energy":     func() { cfg.SedovEnergy = *sedovE },
		"checkpoint":       func() { cfg.Checkpoint = *ckpt },
		"checkpoint-every": func() { cfg.CheckpointEvery = *ckptEvery },
		"resume":           func() { cfg.Resume = *resume },
		"supervise":        func() { supervise().Enabled = *superviseOn },
		"repart-at":        func() { supervise().RepartAtStep = *repartAt },
		"repart-ranks":     func() { supervise().RepartRanks = *repartRanks },
		"history":          func() { cfg.HistoryEvery = *history },
		"trace":            func() { cfg.Trace = *tracePfx },
		"metrics":          func() { cfg.Metrics = *metricsOut },
		"probe-every":      func() { cfg.ProbeEvery = *probeEvery },
	}
	flag.Visit(func(f *flag.Flag) {
		if set, ok := override[f.Name]; ok {
			set()
		}
	})

	start := time.Now()
	res, err := bookleaf.Run(cfg)
	if err != nil {
		return err
	}
	wall := time.Since(start)

	fmt.Printf("problem    %s (%dx%d cells, %d elements, %d nodes)\n",
		res.Problem, cfg.NX, cfg.NY, res.NEl, res.NNd)
	fmt.Printf("parallel   %d rank(s) x %d thread(s)\n", res.Ranks, res.Threads)
	fmt.Printf("steps      %d to t=%.6f\n", res.Steps, res.Time)
	fmt.Printf("wall       %.3fs\n", wall.Seconds())
	fmt.Printf("energy     E0=%.8g E=%.8g work=%.8g drift=%.3g\n",
		res.E0, res.EFinal, res.ExternalWork, res.EnergyDrift())
	fmt.Printf("mass       M0=%.8g M=%.8g\n", res.Mass0, res.MassFinal)
	if res.Rollbacks > 0 {
		fmt.Printf("rollbacks  %d transient failure(s) recovered\n", res.Rollbacks)
	}
	if res.SupRetries > 0 || res.Replacements > 0 || res.Repartitions > 0 {
		fmt.Printf("supervise  %d retry(ies), %d replacement(s), %d repartition(s)\n",
			res.SupRetries, res.Replacements, res.Repartitions)
	}
	if res.FinalRanks != res.Ranks {
		fmt.Printf("elastic    finished on %d rank(s) (started on %d)\n", res.FinalRanks, res.Ranks)
	}
	if cfg.ProbeEvery > 0 {
		fmt.Printf("probes     %d sample(s), %d violation(s)\n", len(res.Probes), res.ProbeViolations)
	}
	if cfg.Metrics != "" {
		fmt.Printf("metrics    written to %s\n", cfg.Metrics)
	}
	if cfg.Trace != "" {
		fmt.Printf("traces     %s.rank*.trace.json (merge with bleaf-trace)\n", cfg.Trace)
	}

	if len(res.History) > 0 {
		fmt.Println("\nstep history:")
		fmt.Printf("  %8s %12s %12s %14s %14s\n", "step", "time", "dt", "energy", "kinetic")
		for _, h := range res.History {
			fmt.Printf("  %8d %12.6f %12.3e %14.8g %14.8g\n", h.Step, h.Time, h.Dt, h.Energy, h.Kinetic)
		}
	}

	if !*quiet {
		fmt.Println("\nper-kernel breakdown (max across ranks):")
		printBreakdown(res)
	}

	if *profileOut != "" {
		f, err := os.Create(*profileOut)
		if err != nil {
			return err
		}
		defer f.Close()
		var xs, rho, p, ein []float64
		switch res.Problem {
		case "noh", "sedov":
			xs, rho = res.RadialProfile(res.Rho)
			_, p = res.RadialProfile(res.P)
			_, ein = res.RadialProfile(res.Ein)
			if err := dump.Columns(f, []string{"r", "rho", "p", "ein"}, xs, rho, p, ein); err != nil {
				return err
			}
		default:
			xs, rho = res.XProfile(res.Rho)
			_, p = res.XProfile(res.P)
			_, ein = res.XProfile(res.Ein)
			if err := dump.Columns(f, []string{"x", "rho", "p", "ein"}, xs, rho, p, ein); err != nil {
				return err
			}
		}
		fmt.Printf("\nprofile written to %s\n", *profileOut)
	}
	if *vtkOut != "" {
		f, err := os.Create(*vtkOut)
		if err != nil {
			return err
		}
		defer f.Close()
		err = dump.WriteVTK(f, "bookleaf "+res.Problem, res.X, res.Y, res.Mesh.ElNd,
			dump.VTKField{Name: "rho", Values: res.Rho},
			dump.VTKField{Name: "pressure", Values: res.P},
			dump.VTKField{Name: "ein", Values: res.Ein},
			dump.VTKField{Name: "u", Values: res.U},
			dump.VTKField{Name: "v", Values: res.V},
		)
		if err != nil {
			return err
		}
		fmt.Printf("VTK dump written to %s\n", *vtkOut)
	}
	return nil
}

// loadDeck parses the deck at path, or an empty deck when path is "",
// so a run without -deck takes the deck defaults.
func loadDeck(path string) (*config.Deck, error) {
	if path == "" {
		return config.ParseString("")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return config.Parse(f)
}

func printBreakdown(res *bookleaf.Result) {
	type row struct {
		name string
		sec  float64
	}
	var rows []row
	var total float64
	for name, sec := range res.Timers {
		rows = append(rows, row{name, sec})
		total += sec
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].sec > rows[j].sec })
	fmt.Printf("  %-12s %10s %8s %8s\n", "kernel", "seconds", "percent", "calls")
	for _, r := range rows {
		pct := 0.0
		if total > 0 {
			pct = 100 * r.sec / total
		}
		fmt.Printf("  %-12s %10.4f %7.1f%% %8d\n", r.name, r.sec, pct, res.Calls[r.name])
	}
	fmt.Printf("  %-12s %10.4f\n", "total", total)
}
