// Package bookleaf is a from-scratch Go implementation of BookLeaf, the
// UK Mini-App Consortium's 2-D unstructured Arbitrary Lagrangian-
// Eulerian (ALE) shock-hydrodynamics mini-application (Truby et al.,
// "BookLeaf: An Unstructured Hydrodynamics Mini-Application", 2018).
//
// The package exposes the mini-app's driver surface: configure one of
// the four standard test problems (Sod, Noh, Sedov, Saltzmann), run it
// serially, threaded ("hybrid"), or across goroutine ranks with halo
// exchanges (the paper's flat-MPI analogue), and collect per-kernel
// timings matching the paper's Table II breakdown. Lower-level pieces
// live in internal packages: the Lagrangian kernels (internal/hydro),
// the advection step (internal/ale), the mesh (internal/mesh), the
// Typhon-like communication layer (internal/typhon), domain
// decomposition (internal/partition) and the platform performance
// model (internal/machine).
//
// Quick start:
//
//	res, err := bookleaf.Run(bookleaf.Config{Problem: "sod", NX: 200, NY: 4})
//	if err != nil { ... }
//	fmt.Println(res.Steps, res.Time, res.Timers["qforce"])
//
// The default step runs fused element passes (timer keys "qforce",
// "lagupdate"); set Config.NoFuse for the paper's eight-kernel
// breakdown ("getq", "getforce", ... — bitwise-identical fields).
package bookleaf

import (
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"bookleaf/internal/ale"
	"bookleaf/internal/atomicfile"
	"bookleaf/internal/checkpoint"
	"bookleaf/internal/hydro"
	"bookleaf/internal/mesh"
	"bookleaf/internal/obs"
	"bookleaf/internal/order"
	"bookleaf/internal/typhon"
)

// Config selects and parameterises a run. The zero value is not valid:
// Problem, NX and NY are required.
type Config struct {
	// Problem is one of "sod", "noh", "sedov", "saltzmann",
	// "waterair", or "nohdisc" (Noh on a quarter-disc mesh; NY
	// ignored).
	Problem string
	// NX, NY are the mesh resolution.
	NX, NY int
	// TEnd overrides the problem's standard end time when positive.
	TEnd float64
	// MaxSteps caps the step count when positive.
	MaxSteps int

	// ALE selects the advection mode: "" (pure Lagrangian),
	// "eulerian", or "smoothed". ALEFreq remaps every n-th step
	// (default 1).
	ALE     string
	ALEFreq int
	// FirstOrderRemap disables the limited linear reconstruction.
	FirstOrderRemap bool

	// Hourglass overrides the default control: "none", "filter",
	// "subzonal" ("" keeps the problem default).
	Hourglass string

	// Ranks is the number of goroutine ranks (the flat-MPI analogue);
	// Threads the per-rank thread count (the OpenMP analogue). Both
	// default to 1.
	Ranks, Threads int
	// Partitioner is "rcb" (default) or "metis" (the multilevel
	// graph partitioner).
	Partitioner string
	// Reorder renumbers the global mesh for cache locality before any
	// partitioning: "none" (default — the generator's row-major order,
	// bitwise the pre-reorder behaviour), "hilbert" (space-filling
	// curve over element centroids) or "rcm" (reverse Cuthill-McKee on
	// the dual graph). Results, checkpoints and dumps stay in canonical
	// generation order whatever the setting (see internal/order).
	Reorder string

	// ScatterAcc switches the acceleration kernel from the default
	// race-free gather back to the reference implementation's serial
	// corner-force→node scatter (paper-fidelity ablation of the OpenMP
	// data dependency).
	ScatterAcc bool

	// NoFuse switches the Lagrangian step from the default fused
	// element passes (viscosity+force and the geometry→density→energy→
	// EOS chain each as one sweep) back to the paper's
	// one-kernel-per-phase structure. Fields are bitwise identical
	// either way (see DESIGN.md §13); unfused is the ablation that
	// reproduces the paper's Table II timer breakdown.
	NoFuse bool

	// SedovEnergy overrides the Sedov blast energy when positive.
	SedovEnergy float64

	// Checkpoint, when set, names a restart-dump file written every
	// CheckpointEvery steps (default: end of run only). Resume, when
	// set, restores a prior dump before stepping. Snapshots are
	// partition-independent (format checkpoint.FormatVersion): a run
	// checkpointed at N ranks may resume at any rank count with any
	// partitioner.
	Checkpoint      string
	CheckpointEvery int
	Resume          string
	// ResumeFrom restores an in-memory snapshot before stepping — the
	// serving daemon's preemption/resume path, which never touches the
	// filesystem. Takes precedence over Resume. Like a file dump it is
	// partition-independent: a leg preempted at N ranks may resume at
	// any rank count.
	ResumeFrom *checkpoint.Snapshot

	// Control, when non-nil, attaches a live supervisor handle to the
	// run: per-step progress and periodic obs snapshots flow out
	// through it, and Cancel/Preempt requests flow in (see Control).
	// A Control is single-use; make a fresh one per Run.
	Control *Control

	// HistoryEvery records a StepRecord every n steps into
	// Result.History (0 = off).
	HistoryEvery int

	// Trace, when set, is the prefix of per-rank Chrome trace_event
	// dumps (<prefix>.rank<id>.trace.json): one span per timer phase,
	// instant events for rollbacks, aborts and probe violations. Merge
	// and summarise with cmd/bleaf-trace; the merged file loads in
	// chrome://tracing or Perfetto. When empty (the default) no tracer
	// is attached and the steady-state step stays allocation-free.
	Trace string
	// Metrics, when set, names a metrics.json written at the end of
	// the run: the merged obs counter/gauge/histogram snapshot plus
	// run metadata and the per-kernel timer seconds.
	Metrics string
	// ProbeEvery samples the runtime invariant probes (total mass,
	// internal+kinetic energy against the conservation identity, and
	// finite-value sweeps) every n steps; 0 disables them. Samples and
	// violations land in Result.Probes and the obs metrics.
	ProbeEvery int

	// Supervise configures the rank-supervision layer: the graded
	// recovery ladder (retry / replace / checkpoint-then-abort) and
	// online elastic repartitioning. nil (or Enabled false) leaves the
	// ladder off, which reproduces the pre-supervision behaviour
	// exactly.
	Supervise *SuperviseConfig

	// testDtMin overrides the minimum-timestep abort threshold; used
	// by failure-injection tests.
	testDtMin float64
	// testRollbackEvery, when positive, overrides the rolling-snapshot
	// cadence rollbackEvery; testRetryBudget, when non-zero, overrides
	// retryBudget (negative turns rollback-retry off).
	testRollbackEvery int
	testRetryBudget   int
	// testFault, when set, is called on every rank after each completed
	// step and may corrupt the state — fault injection for the
	// rollback-retry tests.
	testFault func(rank, step int, s *hydro.State)
	// testFaultPlan arms message-level fault injection in the typhon
	// layer (a one-rank run sends no messages for them to ride on).
	testFaultPlan *typhon.FaultPlan
	// testRecvTimeout bounds typhon Recv waits so
	// dropped-message faults are detected instead of deadlocking.
	testRecvTimeout time.Duration
}

func (c *Config) normalise() error {
	if c.Ranks == 0 {
		c.Ranks = 1
	}
	if c.Threads == 0 {
		c.Threads = 1
	}
	if c.ALEFreq == 0 {
		c.ALEFreq = 1
	}
	if c.Partitioner == "" {
		c.Partitioner = "rcb"
	}
	if c.Ranks < 1 || c.Threads < 1 || c.ALEFreq < 1 {
		return fmt.Errorf("Ranks, Threads and ALEFreq must be >= 1")
	}
	switch c.ALE {
	case "", "eulerian", "smoothed":
	default:
		return fmt.Errorf("unknown ALE mode %q", c.ALE)
	}
	switch c.Hourglass {
	case "", "none", "filter", "subzonal":
	default:
		return fmt.Errorf("unknown hourglass control %q", c.Hourglass)
	}
	switch c.Partitioner {
	case "rcb", "metis":
	default:
		return fmt.Errorf("unknown partitioner %q", c.Partitioner)
	}
	if _, err := order.Parse(c.Reorder); err != nil {
		return err
	}
	if sc := c.Supervise; sc != nil {
		if sc.RepartAtStep < 0 || sc.RepartRanks < 0 {
			return fmt.Errorf("[supervise] repart_at %d and repart_ranks %d must be >= 0", sc.RepartAtStep, sc.RepartRanks)
		}
		if !sc.Enabled {
			c.Supervise = nil // nil is off from here on
		}
	}
	return nil
}

// Validate normalises a copy of the config and reports whether Run
// would accept its shape (problem selection is still checked at run
// time). The serving daemon calls it at admission so a malformed deck
// is a 400, not a failed job.
func (c Config) Validate() error {
	return (&c).normalise()
}

// SuperviseConfig configures the rank-supervision layer (deck section
// [supervise]). The ladder's budgets are constants of
// internal/supervise, not settings (DESIGN.md §12).
type SuperviseConfig struct {
	// Enabled turns the recovery ladder on: transient faults retry the
	// epoch, persistent rank-local faults replace the rank from its last
	// in-memory Memento, fatal faults checkpoint then abort. Off, any
	// epoch fault is fatal and the other fields are ignored.
	Enabled bool
	// RepartAtStep forces one online repartition at the given step
	// (0 = none). RepartRanks, when positive, is the rank count after
	// it (0 = keep the current count).
	RepartAtStep int
	RepartRanks  int
}

// Step-level rollback-retry: every rollbackEvery steps each rank saves
// a rolling in-memory snapshot, and on a timestep collapse, a tangled
// element or a non-finite field the driver rolls every rank back to it
// between epochs, halves the timestep cap and retries, at most
// retryBudget times before aborting with the underlying error.
const (
	rollbackEvery = 10
	retryBudget   = 3
)

// rollbackCadence is the rolling-snapshot cadence in steps.
func (c *Config) rollbackCadence() int {
	if c.testRollbackEvery > 0 {
		return c.testRollbackEvery
	}
	return rollbackEvery
}

// retries is the rollback-retry budget; at 0 no rolling snapshot is
// kept either.
func (c *Config) retries() int {
	if c.testRetryBudget != 0 {
		return max(c.testRetryBudget, 0)
	}
	return retryBudget
}

func (c *Config) aleOptions() *ale.Options {
	switch c.ALE {
	case "eulerian":
		return &ale.Options{Mode: ale.Eulerian, FirstOrder: c.FirstOrderRemap}
	case "smoothed":
		return &ale.Options{Mode: ale.Smoothed, SmoothWeight: 0.5, FirstOrder: c.FirstOrderRemap}
	}
	return nil
}

func (c *Config) applyOverrides(opt *hydro.Options) {
	switch c.Hourglass {
	case "none":
		opt.Hourglass = hydro.HGNone
	case "filter":
		opt.Hourglass = hydro.HGFilter
	case "subzonal":
		opt.Hourglass = hydro.HGSubzonal
	}
	opt.ScatterAcc = c.ScatterAcc
	opt.Fuse = !c.NoFuse
	if c.testDtMin > 0 {
		opt.DtMin = c.testDtMin
	}
}

// Result is the outcome of a run: global final fields, per-kernel
// timings (slowest rank, i.e. the bulk-synchronous wall estimate) and
// conservation audits.
type Result struct {
	Problem        string
	NEl, NNd       int
	Ranks, Threads int

	Steps int
	Time  float64

	// Timers holds per-kernel seconds (max across ranks); TimerSum
	// the rank-summed CPU seconds; Calls the invocation counts (max
	// across ranks). Calls counts kernel intervals that were run, so a
	// recovered run's counts include the intervals of the step a
	// failure interrupted as well as those of its replay.
	Timers   map[string]float64
	TimerSum map[string]float64
	Calls    map[string]int64

	// Final global fields (element- and node-indexed on the global
	// mesh).
	Rho, Ein, P []float64
	U, V        []float64
	X, Y        []float64

	// Mesh is the global problem mesh in canonical generation order, as
	// a mesh.View: NEl, NNd, the element→node map ElNd and the initial
	// coordinates X, Y, which is what profiles and dumps read. It carries
	// no adjacency, CSR, faces, regions, boundary flags or global ids.
	Mesh *mesh.Mesh

	// Conservation audit.
	E0, EFinal, ExternalWork float64
	// FloorEnergy is energy injected by the negative-energy floor
	// (zero on well-resolved problems).
	FloorEnergy      float64
	Mass0, MassFinal float64

	// TEnd actually used, and the problem gamma (for reference
	// solutions).
	TEnd, Gamma float64
	SedovEnergy float64

	// CommMsgs and CommWords are the total messages and float64 words
	// sent through the Typhon layer (zero for one-rank runs).
	CommMsgs, CommWords int64

	// Rollbacks counts the rollback-retries the run spent recovering
	// from transient failures (zero on a clean run).
	Rollbacks int

	// Supervision outcomes (zero unless Config.Supervise enabled the
	// recovery ladder): epoch-level transient retries, rank
	// replacements, and online repartitions.
	SupRetries   int
	Replacements int
	Repartitions int
	// FinalRanks is the rank count at the end of the run — it differs
	// from Ranks after an elastic repartition changed the fleet size.
	FinalRanks int

	// History holds periodic step records when Config.HistoryEvery is
	// set.
	History []StepRecord

	// Obs is the merged observability snapshot: counters summed across
	// ranks (so counters such as steps_total and dt_cause_* are
	// rank-summed, like TimerSum), gauges from the rank that published
	// them, histograms merged. Always non-nil after a successful run.
	Obs *obs.Snapshot

	// Probes holds the invariant-probe samples (conservation records
	// from rank 0, plus non-finite notes from any rank) when
	// Config.ProbeEvery is set; ProbeViolations counts flagged samples
	// across all ranks.
	Probes          []obs.ProbeRecord
	ProbeViolations int
}

// StepRecord is one entry of the optional step history: the quantities
// BookLeaf's step log prints.
type StepRecord struct {
	Step    int
	Time    float64
	Dt      float64
	Energy  float64
	Kinetic float64
}

// EnergyDrift returns |E - E0 - W - F| / max(E0, 1e-300), the
// conservation defect accounting for piston work W and floor energy F.
func (r *Result) EnergyDrift() float64 {
	return math.Abs(r.EFinal-r.E0-r.ExternalWork-r.FloorEnergy) / math.Max(math.Abs(r.E0), 1e-300)
}

// Run executes the configured problem to completion. Every run, at any
// rank count, is the one driver of driver.go stepping a fleet of rank
// loops (rankloop.go); a one-rank fleet's rank 0 is the whole mesh.
func Run(cfg Config) (*Result, error) {
	if err := cfg.normalise(); err != nil {
		return nil, err
	}
	d, err := newDriver(cfg)
	if err != nil {
		return nil, err
	}
	defer d.closeSlots()
	return d.run()
}

// resumeSnapshot resolves the run's resume source — the in-memory
// snapshot when set (the preemption/resume path), else the Resume file,
// else nil — and validates it against the run's identity and global
// mesh sizes. The driver calls it before any ranks spawn, so a missing,
// truncated or incompatible dump fails the run with a clear error
// instead of a mid-flight collapse.
func (c *Config) resumeSnapshot(nel, nnd int) (*checkpoint.Snapshot, error) {
	sn, src := c.ResumeFrom, "resume"
	if sn == nil && c.Resume != "" {
		f, err := os.Open(c.Resume)
		if err != nil {
			return nil, fmt.Errorf("resume: %w", err)
		}
		defer f.Close()
		src = "resume " + c.Resume
		if sn, err = checkpoint.Read(f); err != nil {
			return nil, fmt.Errorf("%s: %w", src, err)
		}
	}
	if sn == nil {
		return nil, nil
	}
	if err := sn.Validate(c.Problem, c.NX, c.NY, nel, nnd); err != nil {
		return nil, fmt.Errorf("%s: %w", src, err)
	}
	return sn, nil
}

// dtCauseCounters pre-resolves one counter per timestep-limiting cause
// so the per-step publish is a single indexed add.
func dtCauseCounters(reg *obs.Registry) [5]*obs.Counter {
	var out [5]*obs.Counter
	for c := hydro.DtCauseInitial; c <= hydro.DtCauseMax; c++ {
		out[c] = reg.Counter("dt_cause_" + c.String())
	}
	return out
}

// writeMetricsFile emits the machine-readable metrics.json for a
// completed run: run identity, the merged obs snapshot, and the
// per-kernel timer seconds.
func writeMetricsFile(path string, cfg Config, res *Result, wallSeconds float64) error {
	mf := &obs.MetricsFile{
		Meta: obs.Meta{
			Problem: res.Problem, NX: cfg.NX, NY: cfg.NY,
			Ranks: res.Ranks, Threads: res.Threads, Steps: res.Steps,
			WallSeconds: wallSeconds,
		},
		Counters:   res.Obs.Counters,
		Gauges:     res.Obs.Gauges,
		Histograms: res.Obs.Histograms,
		Timers:     res.Timers,
	}
	err := atomicfile.Write(path, func(w io.Writer) error { return obs.WriteMetrics(w, mf) })
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	return nil
}
