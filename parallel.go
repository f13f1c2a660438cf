package bookleaf

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"bookleaf/internal/ale"
	"bookleaf/internal/checkpoint"
	"bookleaf/internal/hydro"
	"bookleaf/internal/mesh"
	"bookleaf/internal/obs"
	"bookleaf/internal/order"
	"bookleaf/internal/par"
	"bookleaf/internal/partition"
	"bookleaf/internal/setup"
	"bookleaf/internal/supervise"
	"bookleaf/internal/timers"
	"bookleaf/internal/typhon"
)

// phaseCtrs is the per-exchange-phase attribution pair: the driver
// reads the rank's total-traffic counters around each exchange and
// adds the delta here, so per-phase splits can never disagree with the
// totals typhon publishes.
type phaseCtrs struct {
	msgs, words *obs.Counter
}

// Collective step-status codes, reduced with AllReduceMin at the top of
// every driver iteration so all ranks agree on the worst rank's state.
// Exact float values: the min of any combination is the dominant code.
// The two control codes slot into the order so that the right action
// dominates: a retry outranks a preempt (the failing rank's state must
// be repaired before a resumable snapshot can be gathered — the preempt
// request stays pending and is honoured at the next healthy point), and
// a cancel outranks a retry (the state is being discarded either way)
// but yields to a fatal fault.
const (
	stOK      = 1.0
	stPreempt = 0.5
	stRetry   = 0.0
	stCancel  = -0.5
	stFatal   = -1.0
)

// rankSlot is the driver-side identity of one goroutine rank. It owns
// everything that must survive a supervision epoch boundary: the
// sub-mesh, the hydro state (and its thread pool), the rank's metrics
// registry, the rolling rollback memento, the per-step healthy-point
// memento the recovery ladder restores from, and the collectively
// consistent rollback bookkeeping (timestep cap, retry budget). A slot
// is touched only by its own rank's goroutine while an epoch runs and
// only by the driver between epochs; the communicator's start/finish
// edges order the two.
type rankSlot struct {
	id  int
	sub *partition.SubMesh
	s   *hydro.State
	reg *obs.Registry
	// incarnation is the replacement generation of this slot's rank
	// (0 = original), mirrored from the supervisor.
	incarnation int

	// roll backs in-epoch collective rollback-retry (cadence
	// Config.RollbackEvery); stepStart is the supervised per-step
	// healthy-point snapshot the ladder's retry/replace restore.
	roll      hydro.Memento
	stepStart hydro.Memento

	// Collectively consistent across ranks: all three change only at
	// collective points, so every slot holds the same values.
	dtCap     float64
	budget    int
	rollbacks int

	lastCk    int
	lastProbe int
	lastBal   int
	// workAcc accumulates this rank's per-step compute seconds
	// (stepping minus halo waits) since the last imbalance check.
	workAcc float64

	// Epoch outcome, read by the driver after the communicator drains.
	err     error
	repart  bool
	preempt bool
}

// parRun is the driver state of a parallel run across supervision
// epochs: the problem, the resolved policy, the rank slots, the
// supervisor, and the observability objects that are keyed by rank id
// so they survive replacement (same rank, fresh incarnation) and
// repartitioning (new fleet, reused ids).
type parRun struct {
	cfg  Config
	pol  supervise.Policy
	prob *setup.Problem
	// canon is the canonical generation-order mesh, kept when the
	// problem mesh has been renumbered for locality (prob.Mesh is then
	// the reordered view); results present on this mesh. Equal to
	// prob.Mesh when no reordering is active.
	canon *mesh.Mesh
	tEnd  float64

	// e0, mass0 anchor the conservation audit: the problem's totals at
	// t = 0 on the global mesh, taken once before any rank exists.
	e0, mass0 float64

	gsnap *checkpoint.Snapshot
	// ctlSnap receives the collective in-memory gather when an attached
	// Control preempts the run (allocated only when a Control is set).
	ctlSnap *checkpoint.Snapshot
	start   time.Time

	sup    *supervise.Supervisor
	supReg *obs.Registry

	slots []*rankSlot
	// retired holds the registries of replaced incarnations and
	// pre-repartition fleets; each is merged into the final snapshot
	// exactly once, so a replaced rank's pre-fault totals are counted
	// without double-counting its replayed steps (which were never
	// confirmed into the retired registry — see the pending-counter
	// protocol in rankBody).
	retired []*obs.Registry

	tracers map[int]*obs.Tracer
	probes  map[int]*obs.InvariantProbe
	tms     map[int]*timers.Set

	// Cumulative typhon traffic across epochs (each epoch builds a
	// fresh communicator).
	commMsgs, commWords int64

	// Repartition bookkeeping, written between epochs only.
	lastRepart   int
	forcedRepart bool
}

// runParallel executes the problem across goroutine ranks with the
// Typhon-style communication schedule the paper describes: ghost nodal
// kinematics refreshed for the viscosity limiter, ghost corner forces
// refreshed immediately before the acceleration calculation, and a
// single global MINLOC reduction per step for the timestep.
//
// Fault tolerance wraps that schedule in two layers. Inside an epoch, a
// status reduction at the top of every iteration classifies the step as
// ok, retryable or fatal; retryable failures (timestep collapse,
// tangled element, non-finite field) trigger a collective rollback to a
// rolling in-memory snapshot with a reduced timestep cap, bounded by
// Config.RetryBudget. Communication faults poison the Comm through its
// abort path: every blocked rank unblocks with an error matching
// typhon.ErrAborted and the epoch ends with the root cause, not a
// deadlock.
//
// Around the epochs sits the supervision ladder (Config.Supervise,
// DESIGN.md §12): epoch failures are classified transient /
// rank-persistent / fatal; transients retry the epoch from every rank's
// last healthy-point memento with backoff, persistent rank-local faults
// replace just the offending rank from that same in-memory memento (no
// filesystem round trip, no collective rollback), and fatal faults
// write a final checkpoint before aborting. At healthy collective
// points the driver may also repartition online — re-running RCB/METIS
// on the current (moved) mesh and migrating state through the
// checkpoint-v2 gather/scatter — growing or shrinking the rank count.
// With supervision off (the default) there is exactly one epoch and the
// behaviour is identical to the pre-supervision driver.
func runParallel(cfg Config) (*Result, error) {
	pol, err := cfg.supervisePolicy()
	if err != nil {
		return nil, err
	}
	p, err := setup.ByName(cfg.Problem, cfg.NX, cfg.NY, cfg.SedovEnergy)
	if err != nil {
		return nil, err
	}
	cfg.applyOverrides(&p.Opt)
	canon := p.Mesh
	if kind, _ := order.Parse(cfg.Reorder); kind != order.None {
		// Renumber the global mesh for locality before partitioning;
		// every sub-mesh then composes the permutation into its
		// GlobalEl/GlobalNd maps, so checkpoints and results stay in
		// canonical generation order. Repartitions re-split the same
		// reordered mesh, so the locality order survives them.
		if p.Mesh, err = order.Reorder(p.Mesh, kind); err != nil {
			return nil, fmt.Errorf("bookleaf: %w", err)
		}
	}

	var part []int
	switch cfg.Partitioner {
	case "metis":
		part, err = partition.MultilevelMesh(p.Mesh, cfg.Ranks)
	default:
		part, err = partition.RCBMesh(p.Mesh, cfg.Ranks)
	}
	if err != nil {
		return nil, err
	}
	subs, err := partition.Split(p.Mesh, part, cfg.Ranks)
	if err != nil {
		return nil, err
	}

	tEnd := p.TEnd
	if cfg.TEnd > 0 {
		tEnd = cfg.TEnd
	}

	// Resume sources (in-memory snapshot or dump file) are read and
	// validated once, before any ranks spawn: a missing, truncated or
	// incompatible dump fails here with a clear error instead of
	// collapsing ranks mid-flight.
	resume, err := cfg.resumeSnapshot(p.Mesh.NEl, p.Mesh.NNd)
	if err != nil {
		return nil, fmt.Errorf("bookleaf: %w", err)
	}

	e0, mass0, err := p.InitialAudit()
	if err != nil {
		return nil, fmt.Errorf("bookleaf: initial audit: %w", err)
	}

	pr := &parRun{
		cfg: cfg, pol: pol, prob: p, canon: canon, tEnd: tEnd,
		e0: e0, mass0: mass0,
		start:   time.Now(),
		tracers: make(map[int]*obs.Tracer),
		probes:  make(map[int]*obs.InvariantProbe),
		tms:     make(map[int]*timers.Set),
	}
	// Checkpoints gather into one shared global snapshot: the owned
	// slots of the ranks are disjoint, and the collective protocol in
	// writeCk orders the gathers before rank 0 serialises it.
	if cfg.Checkpoint != "" {
		pr.gsnap = checkpoint.New(cfg.Problem, cfg.NX, cfg.NY, p.Mesh.NEl, p.Mesh.NNd)
	}
	if cfg.Control != nil {
		pr.ctlSnap = checkpoint.New(cfg.Problem, cfg.NX, cfg.NY, p.Mesh.NEl, p.Mesh.NNd)
	}
	if pol.Enabled {
		pr.supReg = obs.NewRegistry()
		pr.sup = supervise.New(pol, pr.supReg)
	}
	defer pr.closeSlots()

	pr.slots, err = pr.newSlots(subs, func(sl *rankSlot) error {
		if resume == nil {
			return nil
		}
		if err := resume.Restore(sl.s, cfg.Problem, cfg.NX, cfg.NY); err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		// The snapshot stores the global (rank-summed) audit
		// accumulators; keep them on rank 0 only so the final
		// re-summation stays correct.
		if sl.id != 0 {
			sl.s.ExternalWork, sl.s.FloorEnergy = 0, 0
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("bookleaf: %w", err)
	}

	for {
		runErr, err := pr.runEpoch()
		if err != nil {
			return nil, fmt.Errorf("bookleaf: %w", err)
		}
		rootErr, rank := pr.rootCause(runErr)
		if rootErr == nil {
			if pr.preemptWanted() {
				return nil, pr.preemptError()
			}
			if pr.repartWanted() {
				if err := pr.doRepart(); err != nil {
					return nil, fmt.Errorf("bookleaf: repartition: %w", err)
				}
				continue
			}
			return pr.finalize()
		}
		if errors.Is(rootErr, ErrCanceled) {
			// A cancel is a request honoured, not a fault: it bypasses
			// the supervision ladder (there is nothing to recover).
			return nil, fmt.Errorf("bookleaf: %w", rootErr)
		}
		if pr.sup == nil {
			// Supervision off: any epoch fault is fatal, exactly as
			// before the ladder existed.
			return nil, fmt.Errorf("bookleaf: %w", rootErr)
		}
		d := pr.sup.Decide(rootErr, rank)
		pr.noteDecision(d)
		if d.Backoff > 0 {
			time.Sleep(d.Backoff)
		}
		switch d.Action {
		case supervise.ActionRetry:
			if err := pr.restoreHealthy(); err != nil {
				return nil, pr.abortWithCheckpoint(fmt.Errorf("%w (retry impossible: %v)", rootErr, err))
			}
		case supervise.ActionReplace:
			if err := pr.replaceRank(d.Rank); err != nil {
				return nil, pr.abortWithCheckpoint(fmt.Errorf("%w (replacement failed: %v)", rootErr, err))
			}
		default:
			return nil, pr.abortWithCheckpoint(rootErr)
		}
	}
}

// newSlots builds a fleet over subs, one goroutine per rank — the width
// the run is about to use; the problem and the sub-meshes are only read
// and each rank writes only its own slot. finish completes a rank's
// fresh slot (a resume, a migration). On failure the fleet's pools are
// closed and the lowest failing rank's error is returned.
func (pr *parRun) newSlots(subs []*partition.SubMesh, finish func(*rankSlot) error) ([]*rankSlot, error) {
	slots := make([]*rankSlot, len(subs))
	errs := make([]error, len(subs))
	var wg sync.WaitGroup
	for i, sub := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if slots[i], errs[i] = pr.newSlot(i, sub); errs[i] == nil {
				errs[i] = finish(slots[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			for _, sl := range slots {
				if sl != nil {
					sl.s.Pool.Close()
				}
			}
			return nil, fmt.Errorf("rank %d: %w", i, err)
		}
	}
	return slots, nil
}

// newSlot builds the persistent driver-side state of one rank: the
// restricted initial fields, a fresh hydro state with its thread pool,
// and a fresh metrics registry for this incarnation.
func (pr *parRun) newSlot(id int, sub *partition.SubMesh) (*rankSlot, error) {
	lm := sub.M
	rho := make([]float64, lm.NEl)
	ein := make([]float64, lm.NEl)
	for i, ge := range lm.GlobalEl {
		rho[i] = pr.prob.Rho[ge]
		ein[i] = pr.prob.Ein[ge]
	}
	s, err := hydro.NewState(lm, pr.prob.Opt, rho, ein)
	if err != nil {
		return nil, err
	}
	pr.prob.ApplyVelocities(s)
	s.Pool = par.New(pr.cfg.Threads)
	rollEvery := pr.cfg.rollbackEvery()
	budget := pr.cfg.retryBudget()
	if rollEvery == 0 {
		budget = 0
	}
	return &rankSlot{
		id: id, sub: sub, s: s, reg: obs.NewRegistry(),
		dtCap: math.Inf(1), budget: budget,
		lastCk: -1, lastProbe: -1, lastBal: -1,
	}, nil
}

// closeSlots releases the thread pools of the current fleet (retired
// incarnations close theirs when they are replaced).
func (pr *parRun) closeSlots() {
	for _, sl := range pr.slots {
		if sl.s != nil && sl.s.Pool != nil {
			sl.s.Pool.Close()
			sl.s.Pool = nil
		}
	}
}

// runEpoch builds a fresh communicator over the current fleet and runs
// every rank until the run completes, a repartition is requested, or a
// fault surfaces. It returns the communicator's panic error (if any)
// and a driver-level setup error.
func (pr *parRun) runEpoch() (error, error) {
	cfg, pol := &pr.cfg, pr.pol
	n := len(pr.slots)
	comm, err := typhon.NewComm(n)
	if err != nil {
		return nil, err
	}
	if cfg.testFaultPlan != nil {
		comm.InjectFaults(cfg.testFaultPlan)
	}
	if pol.RecvTimeout > 0 {
		comm.SetRecvTimeout(pol.RecvTimeout)
	}
	regs := make([]*obs.Registry, n)
	for i, sl := range pr.slots {
		regs[i] = sl.reg
		sl.err = nil
		sl.repart = false
		sl.preempt = false
	}
	comm.AttachObs(regs)
	// Per-id observability objects are created here, before the rank
	// goroutines spawn, so the maps are read-only while they run.
	for _, sl := range pr.slots {
		if cfg.Trace != "" && pr.tracers[sl.id] == nil {
			pr.tracers[sl.id] = obs.NewTracer(sl.id, pr.start)
		}
		if cfg.ProbeEvery > 0 && pr.probes[sl.id] == nil {
			pr.probes[sl.id] = obs.NewInvariantProbe(cfg.ProbeEvery, cfg.ProbeMaxDrift, sl.reg)
		}
		if pr.tms[sl.id] == nil {
			pr.tms[sl.id] = timers.NewSet()
		}
	}
	runErr := comm.Run(func(rk *typhon.Rank) { pr.rankBody(rk) })
	m, w := comm.Stats()
	pr.commMsgs += m
	pr.commWords += w
	return runErr, nil
}

// rootCause picks the epoch's root-cause error and the rank it surfaced
// on: prefer the rank error that is not a peer-abort echo (a timeout,
// size mismatch, or hydro failure carries the cause; AbortError
// wrappers on the other ranks are consequences), then the recovered
// panic, then the first echo.
func (pr *parRun) rootCause(runErr error) (error, int) {
	var abortedErr error
	abortedRank := -1
	for _, sl := range pr.slots {
		e := sl.err
		if e == nil {
			continue
		}
		if errors.Is(e, typhon.ErrAborted) {
			if abortedErr == nil {
				abortedErr = e
				var ab *typhon.AbortError
				if errors.As(e, &ab) {
					abortedRank = ab.Rank
				}
			}
			continue
		}
		return e, sl.id
	}
	if runErr != nil {
		return runErr, -1
	}
	return abortedErr, abortedRank
}

// preemptWanted reports whether the epoch ended at the collective
// preemption point (the verdict comes from the status reduction, so
// every rank parked there or none did).
func (pr *parRun) preemptWanted() bool {
	for _, sl := range pr.slots {
		if !sl.preempt {
			return false
		}
	}
	return len(pr.slots) > 0
}

// preemptError assembles the PreemptedError for a parked fleet: the
// collective in-memory gather the ranks filled before exiting, plus the
// merged metrics of everything the interrupted run accumulated (retired
// incarnations first, exactly as finalize merges them). The rank
// goroutines have drained, so reading their registries here is safe.
func (pr *parRun) preemptError() *PreemptedError {
	merged := obs.NewRegistry()
	for _, r := range pr.retired {
		merged.Merge(r)
	}
	for _, sl := range pr.slots {
		merged.Merge(sl.reg)
	}
	if pr.supReg != nil {
		merged.Merge(pr.supReg)
	}
	return &PreemptedError{
		Snapshot: pr.ctlSnap,
		Step:     pr.ctlSnap.StepCount, Time: pr.ctlSnap.Time,
		Obs: merged.Snapshot(),
	}
}

// repartWanted reports whether the epoch ended with a collective
// repartition request (the trigger is a pure function of reduced
// values, so every rank requests or none do).
func (pr *parRun) repartWanted() bool {
	for _, sl := range pr.slots {
		if !sl.repart {
			return false
		}
	}
	return len(pr.slots) > 0
}

// restoreHealthy reinstates every rank's last healthy-point memento —
// the state all ranks held at the top of the last fully collective
// iteration — clearing any half-stepped or ghost-corrupted fields a
// failing epoch left behind. Not a rollback: the timestep cap and the
// retry budget are untouched.
func (pr *parRun) restoreHealthy() error {
	for _, sl := range pr.slots {
		if !sl.stepStart.Valid() {
			return fmt.Errorf("supervise: rank %d has no healthy-point snapshot", sl.id)
		}
		sl.s.Load(&sl.stepStart)
		if sl.budget > 0 {
			// Re-anchor the rollback memento at the resume point so an
			// in-epoch rollback cannot rewind past the recovery.
			sl.s.Save(&sl.roll)
		}
		sl.err = nil
		sl.repart = false
		sl.preempt = false
		sl.workAcc = 0
		// A rank that died mid-kernel left its timers started; the
		// replay must be free to start them again.
		pr.tms[sl.id].Abandon()
	}
	return nil
}

// replaceRank spawns a fresh incarnation of the failed rank from the
// collective's last in-memory healthy-point memento — no filesystem
// round trip — and restores its peers to the same point. The old
// incarnation's registry is retired (merged once at the end), its
// thread pool closed, and the neighbour patterns rebuild naturally when
// the next epoch constructs its communicator.
func (pr *parRun) replaceRank(rank int) error {
	if rank < 0 || rank >= len(pr.slots) {
		return fmt.Errorf("supervise: cannot replace rank %d of %d", rank, len(pr.slots))
	}
	old := pr.slots[rank]
	if !old.stepStart.Valid() {
		return fmt.Errorf("supervise: rank %d has no healthy-point snapshot to respawn from", rank)
	}
	fresh, err := pr.newSlot(rank, old.sub)
	if err != nil {
		return fmt.Errorf("supervise: respawn rank %d: %w", rank, err)
	}
	fresh.s.Load(&old.stepStart)
	fresh.s.Save(&fresh.stepStart)
	fresh.incarnation = pr.sup.Incarnation(rank)
	fresh.dtCap = old.dtCap
	fresh.budget = old.budget
	fresh.rollbacks = old.rollbacks
	fresh.lastCk = old.lastCk
	fresh.lastProbe = old.lastProbe
	fresh.lastBal = old.lastBal
	pr.retired = append(pr.retired, old.reg)
	if old.s.Pool != nil {
		old.s.Pool.Close()
		old.s.Pool = nil
	}
	pr.slots[rank] = fresh
	return pr.restoreHealthy()
}

// doRepart migrates the run onto a fresh partition of the current
// (moved) mesh, optionally changing the rank count: gather the world
// state through the checkpoint-v2 any-rank-count machinery, re-run the
// partitioner on the moved element centroids, and scatter the state
// onto the new fleet. Runs between epochs, with every rank parked at
// the same healthy point.
func (pr *parRun) doRepart() error {
	cfg, p := &pr.cfg, pr.prob
	world := checkpoint.New(cfg.Problem, cfg.NX, cfg.NY, p.Mesh.NEl, p.Mesh.NNd)
	var work, floor float64
	for _, sl := range pr.slots {
		if err := world.Gather(sl.s); err != nil {
			return err
		}
		work += sl.s.ExternalWork
		floor += sl.s.FloorEnergy
	}
	s0 := pr.slots[0].s
	world.SetClock(s0.Time, s0.DtPrev, s0.StepCount, work, floor)
	// QEdge — the edge viscous-damper coefficients — is the one
	// evolving field the partition-independent snapshot omits (it is
	// not needed for restart-file compatibility, only for exact
	// continuation). Migrating it through a driver-side global array
	// keeps the post-repartition step on the trajectory the unperturbed
	// run would have taken.
	gq := make([]float64, 4*p.Mesh.NEl)
	for _, sl := range pr.slots {
		lm := sl.sub.M
		cs := sl.s.CornerStride()
		for i := 0; i < lm.NOwnEl; i++ {
			copy(gq[4*lm.GlobalEl[i]:4*lm.GlobalEl[i]+4], sl.s.QEdge[cs*i:cs*i+4])
		}
	}

	n := len(pr.slots)
	if pr.pol.RepartRanks > 0 {
		n = pr.pol.RepartRanks
	}
	if pr.pol.RanksMax > 0 && n > pr.pol.RanksMax {
		n = pr.pol.RanksMax
	}
	if n > p.Mesh.NEl {
		n = p.Mesh.NEl
	}
	if n < 1 {
		n = 1
	}

	var part []int
	var err error
	switch cfg.Partitioner {
	case "metis":
		// The multilevel partitioner works on the dual graph, which the
		// moving mesh never changes (topology is static).
		part, err = partition.MultilevelMesh(p.Mesh, n)
	default:
		// RCB on the *current* element centroids: the whole point of an
		// online repartition is that the Lagrangian mesh has moved.
		cx := make([]float64, p.Mesh.NEl)
		cy := make([]float64, p.Mesh.NEl)
		for e := 0; e < p.Mesh.NEl; e++ {
			var sx, sy float64
			for k := 0; k < 4; k++ {
				nd := p.Mesh.ElNd[e][k]
				// world is gathered in canonical generation order; on
				// a reordered global mesh the node id must map through
				// GlobalNd to find its snapshot slot.
				if p.Mesh.GlobalNd != nil {
					nd = p.Mesh.GlobalNd[nd]
				}
				sx += world.X[nd]
				sy += world.Y[nd]
			}
			cx[e] = 0.25 * sx
			cy[e] = 0.25 * sy
		}
		part, err = partition.RCB(cx, cy, n)
	}
	if err != nil {
		return err
	}
	subs, err := partition.Split(p.Mesh, part, n)
	if err != nil {
		return err
	}

	tmpl := pr.slots[0]
	fresh, err := pr.newSlots(subs, func(sl *rankSlot) error {
		if err := world.Restore(sl.s, cfg.Problem, cfg.NX, cfg.NY); err != nil {
			return err
		}
		if sl.id != 0 {
			sl.s.ExternalWork, sl.s.FloorEnergy = 0, 0
		}
		lm := sl.sub.M
		cs := sl.s.CornerStride()
		for j := 0; j < lm.NEl; j++ { // owned and ghost alike
			copy(sl.s.QEdge[cs*j:cs*j+4], gq[4*lm.GlobalEl[j]:4*lm.GlobalEl[j]+4])
		}
		sl.dtCap = tmpl.dtCap
		sl.budget = tmpl.budget
		sl.rollbacks = tmpl.rollbacks
		sl.lastCk = tmpl.lastCk
		sl.lastProbe = tmpl.lastProbe
		sl.lastBal = tmpl.lastBal
		sl.s.Save(&sl.stepStart)
		if sl.budget > 0 {
			sl.s.Save(&sl.roll)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, sl := range pr.slots {
		pr.retired = append(pr.retired, sl.reg)
		if sl.s.Pool != nil {
			sl.s.Pool.Close()
			sl.s.Pool = nil
		}
	}
	pr.slots = fresh
	pr.lastRepart = s0.StepCount
	if pr.pol.RepartAtStep > 0 && s0.StepCount >= pr.pol.RepartAtStep {
		pr.forcedRepart = true
	}
	pr.sup.NoteRepart()
	pr.tracers[0].Instant("supervise_repart", nil)
	return nil
}

// abortWithCheckpoint is the ladder's last rung: park the fleet at its
// last healthy point, write a final restart dump (when the run has a
// checkpoint path), and surface the root cause.
func (pr *parRun) abortWithCheckpoint(root error) error {
	if pr.cfg.Checkpoint != "" && pr.gsnap != nil {
		if err := pr.emergencyCheckpoint(); err != nil {
			return fmt.Errorf("bookleaf: %w (final checkpoint failed: %v)", root, err)
		}
	}
	return fmt.Errorf("bookleaf: %w", root)
}

func (pr *parRun) emergencyCheckpoint() error {
	if err := pr.restoreHealthy(); err != nil {
		return err
	}
	var work, floor float64
	for _, sl := range pr.slots {
		if err := pr.gsnap.Gather(sl.s); err != nil {
			return err
		}
		work += sl.s.ExternalWork
		floor += sl.s.FloorEnergy
	}
	s0 := pr.slots[0].s
	pr.gsnap.SetClock(s0.Time, s0.DtPrev, s0.StepCount, work, floor)
	return writeSnapshotFile(pr.cfg.Checkpoint, pr.gsnap)
}

// noteDecision drops a trace instant for a ladder decision on the
// attributed rank's timeline.
func (pr *parRun) noteDecision(d supervise.Decision) {
	id := d.Rank
	if id < 0 || id >= len(pr.slots) {
		id = 0
	}
	tr := pr.tracers[id]
	switch d.Action {
	case supervise.ActionRetry:
		tr.Instant("supervise_retry", nil)
	case supervise.ActionReplace:
		tr.Instant("supervise_replace", nil)
	default:
		tr.Instant("supervise_abort", nil)
	}
}

// rankBody is one rank's epoch: the communication schedule, the
// collective rollback protocol, and — when supervision is on — the
// healthy-point bookkeeping the recovery ladder and the repartition
// monitor hang off.
func (pr *parRun) rankBody(rk *typhon.Rank) {
	cfg, pol := &pr.cfg, pr.pol
	slot := pr.slots[rk.ID()]
	sm := slot.sub
	lm := sm.M
	s := slot.s
	gsnap := pr.gsnap
	tEnd := pr.tEnd
	supervised := pol.Enabled
	ctl := cfg.Control

	elHalo := typhon.NewHalo(sm.ElSend, sm.ElRecv)
	ndHalo := typhon.NewHalo(sm.NdSend, sm.NdRecv)

	reg := slot.reg
	tracer := pr.tracers[rk.ID()]
	probe := pr.probes[rk.ID()]
	tm := pr.tms[rk.ID()]
	if tracer != nil {
		tm.SetSink(tracer)
	}

	ctrSteps := reg.Counter("steps_total")
	ctrRemaps := reg.Counter("remaps_total")
	ctrRollbacks := reg.Counter("rollbacks_total")
	ctrReduce := reg.Counter("dt_reductions_total")
	dtCause := dtCauseCounters(reg)
	msgsTotal := reg.Counter("comm_msgs_total")
	wordsTotal := reg.Counter("comm_words_total")
	forcesPh := phaseCtrs{reg.Counter("halo_msgs_forces"), reg.Counter("halo_words_forces")}
	velPh := phaseCtrs{reg.Counter("halo_msgs_velocities"), reg.Counter("halo_words_velocities")}
	remapPh := phaseCtrs{reg.Counter("halo_msgs_remap"), reg.Counter("halo_words_remap")}
	// halo_wait_ns is time spent blocked on halo traffic;
	// halo_overlap_ns is the in-flight window the phased schedule
	// hides behind interior work (always zero on the synchronous
	// schedule). Together they make the hidden communication time
	// visible in metrics.json and bleaf-trace.
	ctrWait := reg.Counter("halo_wait_ns")

	// Under supervision, step-progress counters are held pending until
	// the next healthy collective point confirms the step survived. A
	// peer can "complete" a step on garbage ghosts while another rank
	// is dying; that step is rewound by the recovery ladder and
	// replayed, and must not be counted twice. Without supervision the
	// counters update immediately (the pre-supervision behaviour).
	var pendSteps, pendRemaps int64
	var pendCause [5]int64
	flushPending := func() {
		if pendSteps > 0 {
			ctrSteps.Add(pendSteps)
			pendSteps = 0
		}
		if pendRemaps > 0 {
			ctrRemaps.Add(pendRemaps)
			pendRemaps = 0
		}
		for c, v := range pendCause {
			if v > 0 {
				dtCause[c].Add(v)
				pendCause[c] = 0
			}
		}
	}
	dropPending := func() {
		pendSteps, pendRemaps = 0, 0
		pendCause = [5]int64{}
	}

	// Collective rollback bookkeeping lives in the slot so it survives
	// epoch boundaries; locals keep the hot path tidy.
	dtCap := slot.dtCap
	budget := slot.budget
	rollbacks := slot.rollbacks
	defer func() {
		slot.dtCap = dtCap
		slot.budget = budget
		slot.rollbacks = rollbacks
	}()

	// commErr latches the first communication failure on this rank;
	// all later exchanges no-op so the rank drains to the next
	// status check instead of blocking on a poisoned Comm.
	var commErr error
	exch := func(ph phaseCtrs, h *typhon.Halo, stride int, fields ...[]float64) {
		if commErr != nil {
			return
		}
		m0, w0 := msgsTotal.Value(), wordsTotal.Value()
		t0 := time.Now()
		if err := rk.Exchange(h, stride, fields...); err != nil {
			commErr = err
		}
		d := time.Since(t0)
		ctrWait.Add(d.Nanoseconds())
		tracer.Span("halo_wait", t0, d)
		ph.msgs.Add(msgsTotal.Value() - m0)
		ph.words.Add(wordsTotal.Value() - w0)
	}

	var remap *ale.Remapper
	if a := cfg.aleOptions(); a != nil {
		remap = ale.NewRemapper(*a, s)
	}
	aleHooks := &ale.Hooks{
		ExchangeCellFields: func(fields ...[]float64) {
			exch(remapPh, elHalo, 1, fields...)
		},
		ExchangeNodeFields: func(x, y []float64) {
			exch(remapPh, ndHalo, 1, x, y)
		},
		ExchangeVelocities: func(u, v []float64) {
			exch(remapPh, ndHalo, 1, u, v)
		},
	}

	// hooksDone counts the exchange hooks run in the current step
	// so a failing rank can compensate the ones its peers still
	// expect (see the failure path below).
	hooksDone := 0
	hooks := &hydro.Hooks{
		ReduceDt: func(dt float64, e int) (float64, int) {
			if dt > dtCap {
				dt = dtCap
			}
			loc := -1
			if e >= 0 {
				loc = lm.GlobalEl[e]
			}
			if commErr == nil {
				ctrReduce.Inc()
				d, l, err := rk.AllReduceMinLoc(dt, loc)
				if err != nil {
					commErr = err
				} else {
					dt, loc = d, l
				}
			}
			if s.Time+dt > tEnd {
				dt = tEnd - s.Time
			}
			return dt, loc
		},
		ExchangeForces: func(st *hydro.State) {
			hooksDone++
			ff, fw := st.ForceHalo()
			exch(forcesPh, elHalo, fw, ff...)
		},
		ExchangeVelocities: func(st *hydro.State) {
			hooksDone++
			exch(velPh, ndHalo, 1, st.U, st.V, st.UBar, st.VBar)
		},
	}
	if cfg.Overlap {
		// Phased schedule: the same two exchanges, split into
		// Start/Finish around the interior kernels. Start counts
		// toward hooksDone (all sends are posted there), and every
		// Start is balanced by its Finish within the same Step call,
		// so the compensation protocol below is unchanged. A Start
		// that fails leaves nothing pending; its Finish no-ops.
		ctrOverlap := reg.Counter("halo_overlap_ns")
		ffS, fwS := s.ForceHalo()
		peF := rk.NewExchange(elHalo, fwS, len(ffS))
		peV := rk.NewExchange(ndHalo, 1, 4)
		var pendF, pendV bool
		var startF, startV time.Time
		startEx := func(ph phaseCtrs, pe *typhon.PendingExchange, pending *bool, at *time.Time, fields ...[]float64) {
			if commErr != nil {
				return
			}
			m0, w0 := msgsTotal.Value(), wordsTotal.Value()
			if err := pe.Start(fields...); err != nil {
				commErr = err
			} else {
				*pending = true
				*at = time.Now()
			}
			ph.msgs.Add(msgsTotal.Value() - m0)
			ph.words.Add(wordsTotal.Value() - w0)
		}
		finishEx := func(pe *typhon.PendingExchange, pending *bool, at *time.Time) {
			if !*pending {
				return
			}
			*pending = false
			t1 := time.Now()
			ctrOverlap.Add(t1.Sub(*at).Nanoseconds())
			tracer.Span("halo_overlap", *at, t1.Sub(*at))
			if err := pe.Finish(); err != nil {
				commErr = err
			}
			d := time.Since(t1)
			ctrWait.Add(d.Nanoseconds())
			tracer.Span("halo_wait", t1, d)
		}
		hooks.Band = lm.BoundaryBand()
		hooks.StartForces = func(st *hydro.State) {
			hooksDone++
			ff, _ := st.ForceHalo()
			startEx(forcesPh, peF, &pendF, &startF, ff...)
		}
		hooks.FinishForces = func(st *hydro.State) {
			finishEx(peF, &pendF, &startF)
		}
		hooks.StartVelocities = func(st *hydro.State) {
			hooksDone++
			startEx(velPh, peV, &pendV, &startV, st.U, st.V, st.UBar, st.VBar)
		}
		hooks.FinishVelocities = func(st *hydro.State) {
			finishEx(peV, &pendV, &startV)
		}
		if remap != nil {
			// The remap's three exchanges get the same phased
			// treatment. Apply keeps at most one in flight at a
			// time and balances every Start with its Finish on
			// all paths, so the compensation protocol (a failing
			// rank answering with blocking exchanges) still
			// pairs up.
			peRC := rk.NewExchange(elHalo, 1, 6)
			peRN := rk.NewExchange(ndHalo, 1, 2)
			peRV := rk.NewExchange(ndHalo, 1, 2)
			var pendRC, pendRN, pendRV bool
			var startRC, startRN, startRV time.Time
			aleHooks.Band = hooks.Band
			aleHooks.StartCellFields = func(fields ...[]float64) {
				startEx(remapPh, peRC, &pendRC, &startRC, fields...)
			}
			aleHooks.FinishCellFields = func() {
				finishEx(peRC, &pendRC, &startRC)
			}
			aleHooks.StartNodeFields = func(x, y []float64) {
				startEx(remapPh, peRN, &pendRN, &startRN, x, y)
			}
			aleHooks.FinishNodeFields = func() {
				finishEx(peRN, &pendRN, &startRN)
			}
			aleHooks.StartVelocities = func(u, v []float64) {
				startEx(remapPh, peRV, &pendRV, &startRV, u, v)
			}
			aleHooks.FinishVelocities = func() {
				finishEx(peRV, &pendRV, &startRV)
			}
		}
	}

	// writeCk gathers every rank's owned entities into the shared
	// global snapshot and has rank 0 write it. The reductions
	// double as barriers: all gathers complete before the write,
	// and no rank re-gathers before the write finishes. Called
	// collectively — every rank at the same step.
	writeCk := func() error {
		ok := stOK
		if err := gsnap.Gather(s); err != nil {
			ok = stFatal
		}
		work, err := rk.AllReduceSum(s.ExternalWork)
		if err != nil {
			return fmt.Errorf("rank %d: %w", rk.ID(), err)
		}
		floor, err := rk.AllReduceSum(s.FloorEnergy)
		if err != nil {
			return fmt.Errorf("rank %d: %w", rk.ID(), err)
		}
		g, err := rk.AllReduceMin(ok)
		if err != nil {
			return fmt.Errorf("rank %d: %w", rk.ID(), err)
		}
		if g < 0 {
			return fmt.Errorf("rank %d: checkpoint gather failed", rk.ID())
		}
		var wErr error
		if rk.ID() == 0 {
			gsnap.SetClock(s.Time, s.DtPrev, s.StepCount, work, floor)
			wErr = writeSnapshotFile(cfg.Checkpoint, gsnap)
		}
		ok = stOK
		if wErr != nil {
			ok = stFatal
		}
		g, err = rk.AllReduceMin(ok)
		if err != nil {
			return fmt.Errorf("rank %d: %w", rk.ID(), err)
		}
		if g < 0 {
			if wErr != nil {
				return wErr
			}
			return fmt.Errorf("rank %d: checkpoint write failed on rank 0", rk.ID())
		}
		return nil
	}

	// preemptCk is writeCk without the file: every rank gathers its
	// owned entities into the control snapshot and rank 0 stamps the
	// clock. The ranks park right after, so the single reduction pair
	// is barrier enough — nobody re-gathers before the driver reads
	// the snapshot from the drained fleet.
	preemptCk := func() error {
		ok := stOK
		if err := pr.ctlSnap.Gather(s); err != nil {
			ok = stFatal
		}
		work, err := rk.AllReduceSum(s.ExternalWork)
		if err != nil {
			return fmt.Errorf("rank %d: %w", rk.ID(), err)
		}
		floor, err := rk.AllReduceSum(s.FloorEnergy)
		if err != nil {
			return fmt.Errorf("rank %d: %w", rk.ID(), err)
		}
		g, err := rk.AllReduceMin(ok)
		if err != nil {
			return fmt.Errorf("rank %d: %w", rk.ID(), err)
		}
		if g < 0 {
			return fmt.Errorf("rank %d: preemption gather failed", rk.ID())
		}
		if rk.ID() == 0 {
			pr.ctlSnap.SetClock(s.Time, s.DtPrev, s.StepCount, work, floor)
		}
		return nil
	}

	// sampleProbe globally reduces the conservation invariants and
	// records the sample on rank 0. Called collectively at the
	// healthy point, so the reductions line up across ranks. The
	// sampled state is finite by construction — a non-finite field
	// never reaches the healthy point; those are flagged through
	// NoteNonFinite on the rank that detects them.
	sampleProbe := func() error {
		mass, err := rk.AllReduceSum(s.TotalMass())
		if err != nil {
			return fmt.Errorf("rank %d: %w", rk.ID(), err)
		}
		energy, err := rk.AllReduceSum(s.TotalEnergy())
		if err != nil {
			return fmt.Errorf("rank %d: %w", rk.ID(), err)
		}
		work, err := rk.AllReduceSum(s.ExternalWork)
		if err != nil {
			return fmt.Errorf("rank %d: %w", rk.ID(), err)
		}
		floor, err := rk.AllReduceSum(s.FloorEnergy)
		if err != nil {
			return fmt.Errorf("rank %d: %w", rk.ID(), err)
		}
		if rk.ID() == 0 {
			rec := probe.Sample(s.StepCount, s.Time, mass, energy, work, floor, true)
			if rec.Violation {
				tracer.Instant("probe_violation", nil)
			}
		}
		return nil
	}

	// repartDue applies the repartition triggers at the healthy point:
	// a deterministic forced trigger, and the load-imbalance monitor
	// over AllReduce'd per-rank work — the decision is a pure function
	// of reduced values, so every rank computes the same verdict.
	repartDue := func() (bool, error) {
		if pol.RepartAtStep > 0 && !pr.forcedRepart && s.StepCount >= pol.RepartAtStep {
			return true, nil
		}
		if pol.RepartCheckEvery > 0 && s.StepCount > 0 &&
			s.StepCount%pol.RepartCheckEvery == 0 && s.StepCount != slot.lastBal {
			slot.lastBal = s.StepCount
			work := slot.workAcc
			slot.workAcc = 0
			sum, err := rk.AllReduceSum(work)
			if err != nil {
				return false, fmt.Errorf("rank %d: %w", rk.ID(), err)
			}
			negMax, err := rk.AllReduceMin(-work)
			if err != nil {
				return false, fmt.Errorf("rank %d: %w", rk.ID(), err)
			}
			if s.StepCount-pr.lastRepart < pol.RepartMinGap {
				return false, nil
			}
			return supervise.ShouldRepart(-negMax, sum, rk.Size(), pol.RepartThreshold), nil
		}
		return false, nil
	}

	rollEvery := cfg.rollbackEvery()
	if budget > 0 && !slot.roll.Valid() {
		s.Save(&slot.roll) // cover steps before the first cadence point
	}
	var stepErr, fatalErr error
	for {
		if fatalErr == nil && commErr != nil {
			fatalErr = fmt.Errorf("rank %d: %w", rk.ID(), commErr)
		}
		code := stOK
		switch {
		case fatalErr != nil:
			code = stFatal
		case stepErr != nil:
			if budget > 0 && hydro.Retryable(stepErr) {
				code = stRetry
			} else {
				fatalErr = stepErr
				code = stFatal
			}
		}
		if code == stOK {
			// Control requests ride the same reduction as failures, so
			// every rank acts on the same verdict at the same step. A
			// rank that hasn't seen the request yet still obeys the
			// reduced code. Retry outranks preempt (min-reduction):
			// failing state repairs before it is gathered.
			switch ctl.poll() {
			case ctlCancel:
				code = stCancel
			case ctlPreempt:
				code = stPreempt
			}
		}
		g, err := rk.AllReduceMin(code)
		if err != nil {
			if fatalErr == nil {
				fatalErr = fmt.Errorf("rank %d: %w", rk.ID(), err)
			}
			break
		}
		if g <= stFatal {
			if fatalErr == nil {
				if stepErr != nil {
					fatalErr = stepErr
				} else {
					fatalErr = fmt.Errorf("rank %d stopped by peer failure: %w", rk.ID(), typhon.ErrAborted)
				}
			}
			tracer.Instant("abort", nil)
			break
		}
		if g <= stCancel {
			// Collective cancellation: every rank latches the same
			// error, so fatalErr stays collectively consistent and the
			// final-checkpoint participation check still lines up.
			fatalErr = fmt.Errorf("rank %d: %w", rk.ID(), ErrCanceled)
			tracer.Instant("cancel", nil)
			break
		}
		if g <= stRetry {
			// Collective rollback: every rank restores its snapshot
			// of the same step and backs the shared timestep cap off.
			// budget and dtCap stay identical across ranks because
			// both only change here.
			budget--
			rollbacks++
			ctrRollbacks.Inc()
			tracer.Instant("rollback", nil)
			s.Load(&slot.roll)
			dtCap = math.Min(dtCap, s.DtPrev) / pol.DtBackoff
			stepErr = nil
			dropPending()
			continue
		}
		// All ranks healthy and at the same step.
		if supervised {
			// Confirm the counters of the steps that survived to this
			// collective point, then refresh the healthy-point memento
			// the recovery ladder resumes from: replacement and epoch
			// retry both restore here, so a replayed step is never
			// double-counted.
			flushPending()
			s.Save(&slot.stepStart)
		}
		if rk.ID() == 0 {
			// Rank 0 owns progress and mid-run metrics publication; its
			// registry also holds the probe records, so the published
			// snapshot is the most informative single-rank view.
			ctl.noteProgress(s.StepCount, s.Time, tEnd)
			if ctl.snapshotDue(s.StepCount) {
				ctl.publishMetrics(reg.Snapshot())
			}
		}
		if gsnap != nil && cfg.CheckpointEvery > 0 && s.StepCount > 0 &&
			s.StepCount%cfg.CheckpointEvery == 0 && s.StepCount != slot.lastCk {
			slot.lastCk = s.StepCount
			if err := writeCk(); err != nil {
				fatalErr = err
				continue
			}
		}
		if probe.Due(s.StepCount) && s.StepCount != slot.lastProbe {
			slot.lastProbe = s.StepCount
			if err := sampleProbe(); err != nil {
				fatalErr = err
				continue
			}
		}
		if s.Time >= tEnd-1e-12 {
			break
		}
		if cfg.MaxSteps > 0 && s.StepCount >= cfg.MaxSteps {
			break
		}
		if g <= stPreempt {
			// Collective preemption point: gather the world into the
			// in-memory control snapshot and park the epoch; the driver
			// wraps the snapshot in a PreemptedError. Placed after the
			// termination checks so a run that already reached tEnd
			// completes instead of preempting.
			if err := preemptCk(); err != nil {
				fatalErr = err
				continue
			}
			slot.preempt = true
			tracer.Instant("preempt", nil)
			return
		}
		if supervised {
			want, rerr := repartDue()
			if rerr != nil {
				fatalErr = rerr
				continue
			}
			if want {
				// Exit the epoch at the healthy point; the driver
				// gathers the world from the parked slots and scatters
				// it onto the new fleet.
				slot.repart = true
				return
			}
		}
		if budget > 0 && s.StepCount%rollEvery == 0 {
			s.Save(&slot.roll)
		}
		hooksDone = 0
		workT0 := time.Now()
		wait0 := ctrWait.Value()
		// Step increments StepCount only after every failure
		// point, so a failed step leaves it unchanged and a
		// rolled-back step replays with the value it had on the
		// first attempt. Capturing it here makes the remap-cadence
		// arithmetic below explicit: a successful step lands on
		// stepStart+1, which is the count peers consult when they
		// decide to remap.
		stepStart := s.StepCount
		if _, err := s.Step(tm, hooks); err != nil {
			stepErr = fmt.Errorf("rank %d step %d (t=%v): %w", rk.ID(), s.StepCount, s.Time, err)
			// Compensate the exchanges peers will still perform
			// this step, keeping the schedule deadlock-free.
			if hooksDone < 1 {
				ff, fw := s.ForceHalo()
				exch(forcesPh, elHalo, fw, ff...)
			}
			if hooksDone < 2 {
				exch(velPh, ndHalo, 1, s.U, s.V, s.UBar, s.VBar)
			}
			// Peers that completed the step sit at stepStart+1 and
			// remap when that count hits the cadence; answer their
			// full exchange sequence (node targets, cell fields,
			// velocities) with scratch values — a collective
			// rollback follows, so only the pattern matters.
			if remap != nil && (stepStart+1)%cfg.ALEFreq == 0 {
				remap.ExchangeScratch(s, aleHooks)
			}
			continue
		}
		if remap != nil && s.StepCount%cfg.ALEFreq == 0 {
			tm.Start(hydro.TimerALE)
			// Apply owns the remap's halo exchanges, including the
			// post-remap ghost-velocity refresh, which it performs
			// on every path — even failures — so peers don't block.
			err := remap.Apply(s, tm, aleHooks)
			tm.Stop(hydro.TimerALE)
			if err != nil {
				stepErr = fmt.Errorf("rank %d remap step %d: %w", rk.ID(), s.StepCount, err)
				continue
			}
			if supervised {
				pendRemaps++
			} else {
				ctrRemaps.Inc()
			}
		}
		if cfg.testFault != nil {
			cfg.testFault(rk.ID(), s.StepCount, s)
		}
		// Health sentinel: a NaN/Inf in the evolving fields rolls
		// the run back rather than silently spreading through the
		// next halo exchange. The probe records the finding first,
		// so corruption is flagged within the step it appears even
		// though the rollback erases the corrupted state.
		if err := s.CheckFinite(); err != nil {
			probe.NoteNonFinite(s.StepCount, s.Time)
			tracer.Instant("probe_violation", nil)
			stepErr = fmt.Errorf("rank %d step %d (t=%v): %w", rk.ID(), s.StepCount, s.Time, err)
			continue
		}
		if supervised {
			pendSteps++
			pendCause[s.DtCause]++
			slot.workAcc += time.Since(workT0).Seconds() - float64(ctrWait.Value()-wait0)/1e9
		} else {
			ctrSteps.Inc()
			dtCause[s.DtCause].Inc()
		}
		if !math.IsInf(dtCap, 1) {
			dtCap *= s.Opt.DtGrowth
		}
	}
	// Final checkpoint. fatalErr is collectively consistent (set on
	// every rank or on none), so participation matches.
	if fatalErr == nil && gsnap != nil {
		if err := writeCk(); err != nil {
			fatalErr = err
		}
	}
	slot.err = fatalErr
}

// finalize assembles the Result from the parked fleet after a clean
// run: global field gather, timer merges, audit sums, and the merged
// observability snapshot (retired incarnations first, each exactly
// once; then the live fleet; then the supervisor's own registry).
func (pr *parRun) finalize() (*Result, error) {
	cfg, p := &pr.cfg, pr.prob
	res := &Result{
		Problem: p.Name, Ranks: cfg.Ranks, FinalRanks: len(pr.slots), Threads: cfg.Threads,
		NEl: p.Mesh.NEl, NNd: p.Mesh.NNd,
		// Fields gather through the canonical GlobalEl/GlobalNd maps,
		// so the mesh they present on is the canonical one.
		Mesh: pr.canon, TEnd: pr.tEnd, Gamma: p.Gamma, SedovEnergy: p.SedovEnergy,
		Rho: make([]float64, p.Mesh.NEl),
		Ein: make([]float64, p.Mesh.NEl),
		P:   make([]float64, p.Mesh.NEl),
		U:   make([]float64, p.Mesh.NNd),
		V:   make([]float64, p.Mesh.NNd),
		X:   make([]float64, p.Mesh.NNd),
		Y:   make([]float64, p.Mesh.NNd),
	}
	for _, sl := range pr.slots {
		lm := sl.sub.M
		s := sl.s
		for i := 0; i < lm.NOwnEl; i++ {
			ge := lm.GlobalEl[i]
			res.Rho[ge] = s.Rho[i]
			res.Ein[ge] = s.Ein[i]
			res.P[ge] = s.P[i]
		}
		for i := 0; i < lm.NOwnNd; i++ {
			gn := lm.GlobalNd[i]
			res.U[gn] = s.U[i]
			res.V[gn] = s.V[i]
			res.X[gn] = s.X[i]
			res.Y[gn] = s.Y[i]
		}
		res.ExternalWork += s.ExternalWork
		res.FloorEnergy += s.FloorEnergy
		res.EFinal += s.TotalEnergy()
		res.MassFinal += s.TotalMass()
	}
	s0 := pr.slots[0]
	res.Steps = s0.s.StepCount
	res.Time = s0.s.Time
	res.Rollbacks = s0.rollbacks
	if pr.sup != nil {
		res.SupRetries = pr.sup.Retries()
		res.Replacements = pr.sup.Replaces()
		res.Repartitions = pr.sup.Reparts()
		for _, sl := range pr.slots {
			if sl.incarnation > 0 {
				pr.supReg.Gauge(fmt.Sprintf("supervise_incarnation_rank%d", sl.id)).Set(float64(sl.incarnation))
			}
		}
	}
	if cfg.aleOptions() != nil {
		// Publish the ALESTEP phase breakdown as counters so
		// metrics.json carries the remap cost split without
		// consumers having to parse the timer table.
		for _, sl := range pr.slots {
			tm := pr.tms[sl.id]
			sl.reg.Counter("ale_getmesh_ns").Add(tm.Elapsed("alegetmesh").Nanoseconds())
			sl.reg.Counter("ale_getfvol_ns").Add(tm.Elapsed("alegetfvol").Nanoseconds())
			sl.reg.Counter("ale_advect_ns").Add(tm.Elapsed("aleadvect").Nanoseconds())
			sl.reg.Counter("ale_update_ns").Add(tm.Elapsed("aleupdate").Nanoseconds())
		}
	}

	maxT := timers.NewSet()
	sumT := timers.NewSet()
	for _, tm := range pr.tms {
		maxT.MergeMax(tm)
		sumT.Merge(tm)
	}
	res.Timers = maxT.Snapshot()
	res.TimerSum = sumT.Snapshot()
	res.Calls = map[string]int64{}
	for _, n := range maxT.Names() {
		res.Calls[n] = maxT.Count(n)
	}
	res.CommMsgs, res.CommWords = pr.commMsgs, pr.commWords
	res.E0, res.Mass0 = pr.e0, pr.mass0

	// Merge the per-rank observability state: counters and histograms
	// sum across ranks and incarnations, gauges come from the rank
	// that published them (the probe gauges live on rank 0; current
	// incarnations merge after retired ones, so their gauges win).
	merged := obs.NewRegistry()
	for _, r := range pr.retired {
		merged.Merge(r)
	}
	for _, sl := range pr.slots {
		merged.Merge(sl.reg)
	}
	if pr.supReg != nil {
		merged.Merge(pr.supReg)
	}
	res.Obs = merged.Snapshot()

	ids := make([]int, 0, len(pr.probes))
	for id := range pr.probes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		pb := pr.probes[id]
		res.ProbeViolations += pb.Violations
		if id == 0 {
			res.Probes = append(res.Probes, pb.Records...)
			continue
		}
		// Conservation samples are recorded on rank 0 only; other
		// ranks contribute their non-finite notes.
		for _, rec := range pb.Records {
			if rec.Violation && !rec.Finite {
				res.Probes = append(res.Probes, rec)
			}
		}
	}
	if cfg.Trace != "" {
		ids = ids[:0]
		for id := range pr.tracers {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			if err := pr.tracers[id].WriteFile(cfg.Trace); err != nil {
				return nil, fmt.Errorf("bookleaf: %w", err)
			}
		}
	}
	if cfg.Metrics != "" {
		if err := writeMetricsFile(cfg.Metrics, *cfg, res, time.Since(pr.start).Seconds()); err != nil {
			return nil, fmt.Errorf("bookleaf: %w", err)
		}
	}
	return res, nil
}
