package bookleaf

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"time"

	"bookleaf/internal/ale"
	"bookleaf/internal/atomicfile"
	"bookleaf/internal/checkpoint"
	"bookleaf/internal/hydro"
	"bookleaf/internal/mesh"
	"bookleaf/internal/obs"
	"bookleaf/internal/order"
	"bookleaf/internal/par"
	"bookleaf/internal/partition"
	"bookleaf/internal/setup"
	"bookleaf/internal/supervise"
	"bookleaf/internal/typhon"
)

// lockstep is the loop bookkeeping that changes only at collective
// points, so every slot of a fleet holds the same values: the rollback
// state (timestep cap, retry budget, rollbacks spent) and, per cadence,
// the last step served — which keeps a point from being served twice
// when a parked or recovered epoch re-enters the healthy point it left
// from. A replacement rank and a repartitioned fleet inherit it whole.
type lockstep struct {
	dtCap     float64
	budget    int
	rollbacks int

	lastCk, lastProbe, lastHist int
}

// Why a fleet left an epoch without finishing the run: the driver has
// something to do with the whole world before the next epoch.
const (
	parkNone       = iota
	parkCheckpoint // write the cadence checkpoint
	parkPreempt    // hand the world back in a PreemptedError
	parkRepart     // re-split the world onto a new fleet
)

// rankSlot is the driver-side identity of one goroutine rank. It owns
// everything that must survive an epoch boundary: the sub-mesh, the
// hydro state and its thread pool, the remapper (built on the slot's
// first epoch), the rolling memento the rollback rung restores, the
// per-step healthy-point memento the supervision ladder restores from,
// and the lockstep bookkeeping. A slot is touched only by its own rank's
// goroutine while an epoch runs and only by the driver between epochs;
// the communicator's start/finish edges order the two.
type rankSlot struct {
	id    int
	sub   *partition.SubMesh
	s     *hydro.State
	remap *ale.Remapper
	// incarnation is the replacement generation of this slot's rank
	// (0 = original), mirrored from the supervisor.
	incarnation int

	// roll backs the driver's rollback-retry (cadence rollbackEvery);
	// stepStart is the supervised per-step healthy-point snapshot the
	// ladder's retry/replace restore. Both
	// stay: roll lags by up to rollbackEvery steps so that a rollback
	// escapes the instability, stepStart is the exact replay point, and
	// neither can be derived from the other. Both carry masses iff the
	// run remaps (newSlot), the only writer of them.
	roll      hydro.Memento
	stepStart hydro.Memento

	lockstep

	// Epoch outcome, read by the driver after the communicator drains:
	// the rank's error, whether that error is its own failed step or
	// remap (not a communication fault or a peer's abort echoed), and
	// why a fleet that did not fail left.
	err        error
	stepFailed bool
	park       int
}

// closePool releases the slot's thread pool.
func (sl *rankSlot) closePool() {
	if sl.s == nil || sl.s.Pool == nil {
		return
	}
	sl.s.Pool.Close()
	sl.s.Pool = nil
}

// rankObs is what a rank id's incarnations and fleets share: its
// metrics registry, its kernel clock (on a tracing run it holds the
// id's trace), its invariant probe, which publishes into the registry,
// and the registry's rollbacks_total, which the driver's rollback
// counts. All run on across a replacement and a repartition.
type rankObs struct {
	reg       *obs.Registry
	clock     *obs.Clock
	probe     *obs.InvariantProbe
	rollbacks *obs.Counter
}

// driver is the state of a run across supervision epochs: the problem,
// the rank slots, the supervisor, and the observability objects that
// are keyed by rank id so they survive replacement (same rank, fresh
// incarnation) and repartitioning (new fleet, reused ids).
//
// A run steps a fleet of goroutine ranks with the Typhon-style
// communication schedule the paper describes: ghost nodal kinematics
// refreshed for the viscosity limiter, ghost corner forces refreshed
// immediately before the acceleration calculation, and a single global
// MINLOC reduction per step for the timestep. A fleet of one is the
// same loop over the whole mesh: its exchanges have no neighbours and
// its reductions no peers (see decompose).
//
// Around the epochs sits the driver, the only code that touches the
// whole world. The fleet parks between epochs for a due cadence
// checkpoint, a preemption and the repartition; the driver gathers the
// parked slots (gatherParked), acts, and starts the next epoch. It
// writes the end-of-run dump after the finishing epoch.
//
// Every recovery runs between epochs too. Inside an epoch a failure
// ends it: a rank whose step fails aborts the Comm, and every blocked
// peer unblocks with an error matching typhon.ErrAborted instead of
// deadlocking; communication faults poison the Comm the same way. The
// driver's first rung is rollback-retry: when every rank that failed
// on its own failed a step or remap hydro.Retryable accepts (timestep
// collapse, tangled element, non-finite field, remap overshoot), every
// slot reloads its rolling in-memory snapshot under a halved timestep
// cap, bounded by retryBudget, and the next epoch replays.
//
// With Config.Supervise the driver also runs the supervision ladder
// (DESIGN.md §12) past that rung: epoch failures are classified transient /
// rank-persistent / fatal; transients retry the epoch from every rank's
// last healthy-point memento, persistent rank-local faults replace just
// the offending rank from that same in-memory memento (no filesystem
// round trip, no rollback), and fatal faults write a final
// checkpoint before aborting. At the healthy point of step repart_at
// the driver may also repartition online, once — re-running RCB/METIS
// on the current (moved) mesh and migrating state through the
// checkpoint gather/scatter — growing or shrinking the rank count.
type driver struct {
	cfg Config
	// prob is the problem the fleet is cut from. A run keeps what it
	// still reads: without supervision, buildFleet drops its global mesh
	// (when the fleet is cut from it) and its initial fields once the
	// ranks hold their own; supervision keeps both, because a re-split
	// (doRepart) and a respawn (replaceRank) read them again.
	prob *setup.Problem
	// nel, nnd are the global mesh's counts, which the result and the
	// world snapshots are sized by after the mesh itself is gone.
	nel, nnd int
	// canon is what Result.Mesh presents: a mesh.View of the canonical
	// generation-order mesh, its element→node map and coordinates only.
	// When the problem mesh is renumbered for locality (prob.Mesh is then
	// the reordered mesh), the rest of the canonical mesh is dropped
	// before the fleet is built; otherwise the view shares prob.Mesh's
	// arrays.
	canon *mesh.Mesh
	tEnd  float64

	// e0, mass0 anchor the conservation audit: the problem's totals at
	// t = 0 on the global mesh, before any resume restore — a snapshot
	// carries the external-work and floor-energy accumulators from
	// t = 0, so the drift identity (and bitwise parity with an
	// uninterrupted run) needs the t = 0 anchors.
	e0, mass0 float64

	// gsnap is the world snapshot checkpoints gather into, reused by
	// every dump of the run (nil without Config.Checkpoint).
	gsnap *checkpoint.Snapshot
	start time.Time

	sup    *supervise.Supervisor
	supReg *obs.Registry

	slots []*rankSlot

	// byID is what a rank id keeps across incarnations and fleets. A
	// replaced incarnation's replayed steps are never counted twice in
	// its registry: they were still pending when it died (see
	// rankLoop's pending counters).
	byID map[int]rankObs

	// history is Result.History in the making, written by rank 0 at
	// healthy points.
	history []StepRecord

	// Cumulative typhon traffic across epochs (each epoch builds a
	// fresh communicator).
	commMsgs, commWords int64
}

// newDriver builds the problem, resolves everything the configuration
// leaves to defaults, validates the resume source and constructs the
// initial fleet. A missing, truncated or incompatible dump fails here,
// before any rank exists, instead of collapsing ranks mid-flight.
func newDriver(cfg Config) (*driver, error) {
	p, err := setup.ByName(cfg.Problem, cfg.NX, cfg.NY, cfg.SedovEnergy)
	if err != nil {
		return nil, err
	}
	cfg.applyOverrides(&p.Opt)
	canon := p.Mesh.View()
	if kind, _ := order.Parse(cfg.Reorder); kind != order.None {
		// Renumber the global mesh for locality before any partitioning;
		// the renumbered mesh and every sub-mesh cut from it carry the
		// permutation in GlobalEl/GlobalNd, so checkpoints and results
		// stay in canonical generation order. Repartitions re-split the
		// same reordered mesh, so the locality order survives them. Only
		// canon's view of the canonical mesh outlives this: its adjacency,
		// CSR and regions are garbage before Split and NewStateOn
		// allocate, which is where a run's memory peaks.
		if p.Mesh, err = order.Reorder(p.Mesh, kind); err != nil {
			return nil, err
		}
	}
	nel, nnd := p.Mesh.NEl, p.Mesh.NNd
	resume, err := cfg.resumeSnapshot(nel, nnd)
	if err != nil {
		return nil, err
	}

	d := &driver{
		cfg: cfg, prob: p, nel: nel, nnd: nnd, canon: canon, tEnd: p.TEnd,
		start: time.Now(), byID: make(map[int]rankObs),
	}
	if cfg.TEnd > 0 {
		d.tEnd = cfg.TEnd
	}
	if cfg.Checkpoint != "" {
		d.gsnap = checkpoint.New(cfg.Problem, cfg.NX, cfg.NY, nel, nnd)
	}
	if cfg.Supervise != nil {
		d.supReg = obs.NewRegistry()
		d.sup = supervise.New(d.supReg)
	}
	if err := d.buildFleet(resume); err != nil {
		return nil, err
	}
	return d, nil
}

// decompose cuts the problem mesh into n ranks' sub-meshes. A fleet of
// one is not cut: its rank 0 is the problem mesh itself, with empty
// exchange lists — no partitioner, no Split, no copy. world, when
// non-nil, holds the current node positions of a moving mesh (an online
// repartition); RCB then bisects those instead of the generated ones.
func (d *driver) decompose(n int, world *checkpoint.Snapshot) ([]*partition.SubMesh, error) {
	m := d.prob.Mesh
	if n == 1 {
		return []*partition.SubMesh{{M: m}}, nil
	}
	var part []int
	var err error
	switch {
	case d.cfg.Partitioner == "metis":
		// The multilevel partitioner works on the dual graph, which the
		// moving mesh never changes (topology is static).
		part, err = partition.MultilevelMesh(m, n)
	case world == nil:
		part, err = partition.RCBMesh(m, n)
	default:
		cx := make([]float64, m.NEl)
		cy := make([]float64, m.NEl)
		wx, wy := world.Field("x"), world.Field("y")
		for e, nds := range m.ElNd {
			var sx, sy float64
			for _, nd := range nds {
				gn := m.GlobalNdID(int(nd)) // world is in canonical generation order
				sx += wx[gn]
				sy += wy[gn]
			}
			cx[e], cy[e] = 0.25*sx, 0.25*sy
		}
		part, err = partition.RCB(cx, cy, n)
	}
	if err != nil {
		return nil, err
	}
	return partition.Split(m, part, n)
}

// buildFleet constructs the initial fleet, anchors the conservation
// audit and applies the resume snapshot. Without supervision nothing
// reads the global mesh or the initial fields again once the fleet
// exists, so they go: the mesh before the ranks' states are allocated
// (the collection those allocations trigger is the one that reclaims
// it), the fields once every state holds its own copy.
func (d *driver) buildFleet(resume *checkpoint.Snapshot) error {
	cfg := &d.cfg
	subs, err := d.decompose(cfg.Ranks, nil)
	if err != nil {
		return err
	}
	whole := len(subs) == 1
	if !whole {
		if d.e0, d.mass0, err = d.prob.InitialAudit(); err != nil {
			return fmt.Errorf("initial audit: %w", err)
		}
		if d.sup == nil {
			d.prob.Mesh = nil // the ranks step on their sub-meshes
		}
	}
	d.slots, err = d.newSlots(subs, func(sl *rankSlot) error {
		if whole {
			// The one slot's fresh state is the problem at t = 0: its
			// totals are bitwise InitialAudit's, without a second pass
			// over the mesh.
			d.e0, d.mass0 = sl.s.TotalEnergy(), sl.s.TotalMass()
		}
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
	if d.sup == nil {
		d.prob.Rho, d.prob.Ein = nil, nil // every state holds its own
	}
	return err
}

// newSlots builds a fleet over subs, one goroutine per rank — the width
// the run is about to use; the problem and the sub-meshes are only read
// and each rank writes only its own slot. finish completes a rank's
// fresh slot (a resume, a migration). On failure the fleet's pools are
// closed and the lowest failing rank's error is returned.
func (d *driver) newSlots(subs []*partition.SubMesh, finish func(*rankSlot) error) ([]*rankSlot, error) {
	slots := make([]*rankSlot, len(subs))
	errs := make([]error, len(subs))
	var wg sync.WaitGroup
	for i, sub := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if slots[i], errs[i] = d.newSlot(i, sub); errs[i] == nil {
				errs[i] = finish(slots[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			for _, sl := range slots {
				if sl != nil {
					sl.closePool()
				}
			}
			return nil, fmt.Errorf("rank %d: %w", i, err)
		}
	}
	return slots, nil
}

// newSlot builds the persistent driver-side state of one rank: a fresh
// hydro state with the problem's initial fields restricted to the
// rank's mesh, and the rank's own thread pool.
func (d *driver) newSlot(id int, sub *partition.SubMesh) (*rankSlot, error) {
	s, err := d.prob.NewStateOn(sub.M)
	if err != nil {
		return nil, err
	}
	masses := d.cfg.aleOptions() != nil // only a remap writes them
	sl := &rankSlot{
		id: id, sub: sub, s: s,
		roll: hydro.Memento{Masses: masses}, stepStart: hydro.Memento{Masses: masses},
		lockstep: lockstep{
			dtCap: math.Inf(1), budget: d.cfg.retries(),
			lastCk: -1, lastProbe: -1, lastHist: -1,
		},
	}
	s.Pool = par.New(d.cfg.Threads)
	return sl, nil
}

// closeSlots releases the thread pools of the current fleet (replaced
// incarnations and fleets close theirs when they go).
func (d *driver) closeSlots() {
	for _, sl := range d.slots {
		sl.closePool()
	}
}

// run drives epochs until the run completes, is preempted or canceled,
// or fails past what the rollback rung and the ladder may recover.
// Between epochs it takes the first rung that applies: a park's action,
// a rollback, then the ladder (DESIGN.md §12, "Rung order").
func (d *driver) run() (*Result, error) {
	for {
		runErr, err := d.runEpoch()
		if err != nil {
			return nil, err
		}
		rootErr, rank, retry := d.rootCause(runErr)
		if retry && d.slots[0].budget > 0 {
			d.rollback()
			continue
		}
		if rootErr == nil {
			// No rank failed, so every rank left at the same healthy
			// point for the same reason.
			park := d.slots[0].park
			switch park {
			case parkPreempt:
				return nil, d.preemptError()
			case parkRepart:
				if err := d.doRepart(); err != nil {
					return nil, fmt.Errorf("repartition: %w", err)
				}
				continue
			}
			// A due cadence checkpoint and the end of the run both
			// write the dump.
			if d.gsnap != nil {
				if err := d.writeDump(); err != nil {
					return nil, fmt.Errorf("checkpoint: %w", err)
				}
			}
			if park == parkCheckpoint {
				continue
			}
			return d.finalize()
		}
		if errors.Is(rootErr, ErrCanceled) {
			// A cancel is a request honoured, not a fault: it bypasses
			// the supervision ladder (there is nothing to recover).
			return nil, rootErr
		}
		if d.sup == nil {
			// Supervision off: any epoch fault is fatal.
			return nil, rootErr
		}
		dec := d.sup.Decide(rootErr, rank)
		d.noteDecision(dec)
		switch dec.Action {
		case supervise.ActionRetry:
			if err := d.restoreHealthy(); err != nil {
				return nil, d.abortWithCheckpoint(fmt.Errorf("%w (retry impossible: %v)", rootErr, err))
			}
		case supervise.ActionReplace:
			if err := d.replaceRank(dec.Rank); err != nil {
				return nil, d.abortWithCheckpoint(fmt.Errorf("%w (replacement failed: %v)", rootErr, err))
			}
		default:
			return nil, d.abortWithCheckpoint(rootErr)
		}
	}
}

// runEpoch builds a fresh communicator over the current fleet and runs
// every rank until the run completes, the fleet parks, or a fault
// surfaces. It returns the communicator's panic error (if any) and a
// driver-level setup error.
func (d *driver) runEpoch() (error, error) {
	cfg := &d.cfg
	n := len(d.slots)
	comm, err := typhon.NewComm(n)
	if err != nil {
		return nil, err
	}
	if cfg.testFaultPlan != nil {
		comm.InjectFaults(cfg.testFaultPlan)
	}
	if cfg.testRecvTimeout > 0 {
		comm.SetRecvTimeout(cfg.testRecvTimeout)
	}
	// Per-id observability objects are created here, before the rank
	// goroutines spawn, so the map is read-only while they run.
	regs := make([]*obs.Registry, n)
	for i, sl := range d.slots {
		sl.err, sl.stepFailed, sl.park = nil, false, parkNone
		o, ok := d.byID[sl.id]
		if !ok {
			o = rankObs{reg: obs.NewRegistry(), clock: obs.NewClock()}
			o.rollbacks = o.reg.Counter("rollbacks_total")
			if cfg.Trace != "" {
				o.clock = obs.NewTracingClock(sl.id, d.start)
			}
			if cfg.ProbeEvery > 0 {
				o.probe = obs.NewInvariantProbe(cfg.ProbeEvery, o.reg)
			}
			d.byID[sl.id] = o
		}
		regs[i] = o.reg
	}
	comm.AttachObs(regs)
	runErr := comm.Run(func(rk *typhon.Rank) { d.newRankLoop(rk).run() })
	m, w := comm.Stats()
	d.commMsgs += m
	d.commWords += w
	return runErr, nil
}

// rollback is the driver's first rung. Every slot restores its rolling
// memento, spends one retry and takes the same timestep cap: half the
// last dt taken from the restored point, or half the lowest cap if that
// is lower (the one the dt reduction saw); advance re-grows it via
// DtGrowth as steps succeed. The steps past the restored one never
// happened: their history records go, and the replay records them
// afresh.
func (d *driver) rollback() {
	dtCap := math.Inf(1)
	for _, sl := range d.slots {
		sl.s.Load(&sl.roll)
		dtCap = math.Min(dtCap, math.Min(sl.dtCap, sl.s.DtPrev))
	}
	step := d.slots[0].s.StepCount
	for _, sl := range d.slots {
		sl.dtCap = dtCap / 2
		sl.budget--
		sl.rollbacks++
		sl.lastHist = min(sl.lastHist, step)
		o := d.byID[sl.id]
		o.rollbacks.Inc()
		o.clock.Instant("rollback", nil)
	}
	h := d.history
	for len(h) > 0 && h[len(h)-1].Step > step {
		h = h[:len(h)-1]
	}
	d.history = h
}

// rootCause picks the epoch's root-cause error and the rank it surfaced
// on, in order of precedence: a recovered panic; a rank's own failure
// that a rollback cannot repair (a timeout or a size mismatch, though
// they report Transient; a non-retryable step; a cancel); a rank's own
// failed step or remap that hydro.Retryable accepts; and last a
// peer-abort echo, attributed to the rank that aborted. The lowest rank
// wins a tie. retry reports that the cause is of the third kind: the
// one the rollback rung takes, so any other failure in the same epoch
// outranks it.
func (d *driver) rootCause(runErr error) (cause error, rank int, retry bool) {
	if runErr != nil {
		return runErr, -1, false
	}
	rank, worst := -1, 3
	for _, sl := range d.slots {
		e, id, r := sl.err, sl.id, 0
		switch {
		case e == nil:
			continue
		case errors.Is(e, typhon.ErrAborted):
			r, id = 2, -1
			var ab *typhon.AbortError
			if errors.As(e, &ab) {
				id = ab.Rank
			}
		case sl.stepFailed && hydro.Retryable(e):
			r = 1
		}
		if r < worst {
			cause, rank, worst = e, id, r
		}
	}
	return cause, rank, worst == 1
}

// mergedObs merges the run's registries, one per rank id in id order:
// counters and histograms sum across ranks, gauges come from the rank
// that published them (the probe gauges live on rank 0), and the
// supervisor's own registry goes last. The rank goroutines have
// drained, so reading their registries is safe.
func (d *driver) mergedObs() *obs.Snapshot {
	var parts []*obs.Snapshot
	for _, id := range slices.Sorted(maps.Keys(d.byID)) {
		parts = append(parts, d.byID[id].reg.Snapshot())
	}
	return obs.MergeSnapshots(append(parts, d.supReg.Snapshot())...)
}

// preemptError gathers the parked fleet into a fresh snapshot and
// wraps it, with the merged metrics of everything the interrupted run
// accumulated, in a PreemptedError.
func (d *driver) preemptError() error {
	cfg := &d.cfg
	snap := checkpoint.New(cfg.Problem, cfg.NX, cfg.NY, d.nel, d.nnd)
	if err := d.gatherParked(snap); err != nil {
		return fmt.Errorf("preempt: %w", err)
	}
	return &PreemptedError{Snapshot: snap, Step: snap.StepCount, Time: snap.Time, Obs: d.mergedObs()}
}

// restoreHealthy reinstates every rank's last healthy-point memento —
// the state all ranks held at the top of the last fully collective
// iteration — clearing any half-stepped or ghost-corrupted fields a
// failing epoch left behind. Not a rollback: the timestep cap and the
// retry budget are untouched.
func (d *driver) restoreHealthy() error {
	for _, sl := range d.slots {
		if !sl.stepStart.Valid() {
			return fmt.Errorf("supervise: rank %d has no healthy-point snapshot", sl.id)
		}
		sl.s.Load(&sl.stepStart)
		if sl.budget > 0 {
			// Re-anchor the rollback memento at the resume point so a
			// rollback cannot rewind past the recovery.
			sl.s.Save(&sl.roll)
		}
		sl.err = nil
		sl.park = parkNone
		// A rank that died mid-kernel left its clock running; the
		// replay must be free to start it again.
		d.byID[sl.id].clock.Abandon()
	}
	return nil
}

// replaceRank spawns a fresh incarnation of the failed rank from the
// collective's last in-memory healthy-point memento — no filesystem
// round trip — and restores its peers to the same point. The old
// incarnation's thread pool is released, the fresh one publishes into
// the same rank-id registry, and the neighbour patterns rebuild
// naturally when the next epoch constructs its communicator.
func (d *driver) replaceRank(rank int) error {
	if rank < 0 || rank >= len(d.slots) {
		return fmt.Errorf("supervise: cannot replace rank %d of %d", rank, len(d.slots))
	}
	old := d.slots[rank]
	if !old.stepStart.Valid() {
		return fmt.Errorf("supervise: rank %d has no healthy-point snapshot to respawn from", rank)
	}
	fresh, err := d.newSlot(rank, old.sub)
	if err != nil {
		return fmt.Errorf("supervise: respawn rank %d: %w", rank, err)
	}
	fresh.s.Load(&old.stepStart)
	fresh.s.Save(&fresh.stepStart)
	fresh.incarnation = d.sup.Incarnation(rank)
	fresh.lockstep = old.lockstep
	old.closePool()
	d.slots[rank] = fresh
	return d.restoreHealthy()
}

// gatherParked fills snap from a fleet parked between epochs, every
// rank at the same healthy point: owned entities, the clock, and the
// rank-summed audit accumulators. It is the driver's one world gather:
// checkpoints, preemption, repartition. The sums run in rank order from
// zero, the order of the rank loop's reductions, so they are bitwise
// the values the ranks would reduce.
func (d *driver) gatherParked(snap *checkpoint.Snapshot) error {
	var work, floor float64
	for _, sl := range d.slots {
		if err := snap.Gather(sl.s); err != nil {
			return err
		}
		work += sl.s.ExternalWork
		floor += sl.s.FloorEnergy
	}
	snap.Clock = d.slots[0].s.Clock
	snap.ExternalWork, snap.FloorEnergy = work, floor
	return nil
}

// doRepart migrates the run onto a fresh partition of the current
// (moved) mesh, optionally changing the rank count: gather the world
// state through the checkpoint any-rank-count machinery, decompose
// again, and scatter the state onto the new fleet. Runs between epochs,
// with every rank parked at the same healthy point.
func (d *driver) doRepart() error {
	cfg := &d.cfg
	world := checkpoint.New(cfg.Problem, cfg.NX, cfg.NY, d.nel, d.nnd)
	if err := d.gatherParked(world); err != nil {
		return err
	}
	n := len(d.slots)
	if sc := cfg.Supervise; sc.RepartRanks > 0 {
		n = sc.RepartRanks
	}
	n = max(1, min(n, d.nel))
	subs, err := d.decompose(n, world)
	if err != nil {
		return err
	}

	tmpl := d.slots[0]
	fresh, err := d.newSlots(subs, func(sl *rankSlot) error {
		if err := world.Restore(sl.s, cfg.Problem, cfg.NX, cfg.NY); err != nil {
			return err
		}
		if sl.id != 0 {
			sl.s.ExternalWork, sl.s.FloorEnergy = 0, 0
		}
		sl.lockstep = tmpl.lockstep
		sl.s.Save(&sl.stepStart)
		if sl.budget > 0 {
			sl.s.Save(&sl.roll)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, sl := range d.slots {
		sl.closePool()
	}
	d.slots = fresh
	d.sup.NoteRepart()
	d.byID[0].clock.Instant("supervise_repart", nil)
	return nil
}

// writeDump gathers the parked fleet into the run's checkpoint
// snapshot and writes it to Config.Checkpoint, replacing the previous
// dump whole or not at all.
func (d *driver) writeDump() error {
	if err := d.gatherParked(d.gsnap); err != nil {
		return err
	}
	return atomicfile.Write(d.cfg.Checkpoint, d.gsnap.Write)
}

// abortWithCheckpoint is the ladder's last rung: park the fleet at its
// last healthy point, write a final restart dump (when the run has a
// checkpoint path), and surface the root cause.
func (d *driver) abortWithCheckpoint(root error) error {
	if d.gsnap != nil {
		err := d.restoreHealthy()
		if err == nil {
			err = d.writeDump()
		}
		if err != nil {
			return fmt.Errorf("%w (final checkpoint failed: %v)", root, err)
		}
	}
	return root
}

// noteDecision drops a trace instant for a ladder decision on the
// attributed rank's timeline.
func (d *driver) noteDecision(dec supervise.Decision) {
	id := dec.Rank
	if id < 0 || id >= len(d.slots) {
		id = 0
	}
	c := d.byID[id].clock
	switch dec.Action {
	case supervise.ActionRetry:
		c.Instant("supervise_retry", nil)
	case supervise.ActionReplace:
		c.Instant("supervise_replace", nil)
	default:
		c.Instant("supervise_abort", nil)
	}
}

// finalize assembles the Result from the parked fleet after a clean
// run: the global field gather in canonical generation order, the
// per-kernel times over rank clocks, audit sums, and the merged
// observability snapshot.
func (d *driver) finalize() (*Result, error) {
	cfg, p := &d.cfg, d.prob
	ids := slices.Sorted(maps.Keys(d.byID))
	res := &Result{
		Problem: p.Name, Ranks: cfg.Ranks, FinalRanks: len(d.slots), Threads: cfg.Threads,
		NEl: d.nel, NNd: d.nnd,
		// Fields gather through the canonical GlobalEl/GlobalNd ids, so
		// the mesh they present on is the canonical one.
		Mesh: d.canon, TEnd: d.tEnd, Gamma: p.Gamma, SedovEnergy: p.SedovEnergy,
		History: d.history,
	}
	// Result's seven arrays are rows of the state's field table, each
	// scattered owned→global by every rank, as a dump's are.
	fields := map[string]*[]float64{"rho": &res.Rho, "ein": &res.Ein, "p": &res.P, "u": &res.U, "v": &res.V, "x": &res.X, "y": &res.Y}
	for _, f := range hydro.DumpFields(d.nel, d.nnd) {
		dst := fields[f.Name]
		if dst == nil {
			continue
		}
		*dst = make([]float64, f.Len)
		for _, sl := range d.slots {
			if err := sl.s.ScatterOwned(f.Name, *dst); err != nil {
				return nil, err
			}
		}
	}
	for _, sl := range d.slots {
		s := sl.s
		res.ExternalWork += s.ExternalWork
		res.FloorEnergy += s.FloorEnergy
		res.EFinal += s.TotalEnergy()
		res.MassFinal += s.TotalMass()
	}
	s0 := d.slots[0]
	res.Steps = s0.s.StepCount
	res.Time = s0.s.Time
	res.Rollbacks = s0.rollbacks
	if d.sup != nil {
		res.SupRetries = d.sup.Retries()
		res.Replacements = d.sup.Replaces()
		res.Repartitions = d.sup.Reparts()
		for _, sl := range d.slots {
			if sl.incarnation > 0 {
				d.supReg.Gauge(fmt.Sprintf("supervise_incarnation_rank%d", sl.id)).Set(float64(sl.incarnation))
			}
		}
	}
	if cfg.aleOptions() != nil {
		// Publish the ALESTEP phase breakdown as counters so
		// metrics.json carries the remap cost split without
		// consumers having to parse the timer table.
		for _, id := range ids {
			c, reg := d.byID[id].clock, d.byID[id].reg
			reg.Counter("ale_getmesh_ns").Add(c.Elapsed("alegetmesh").Nanoseconds())
			reg.Counter("ale_getfvol_ns").Add(c.Elapsed("alegetfvol").Nanoseconds())
			reg.Counter("ale_advect_ns").Add(c.Elapsed("aleadvect").Nanoseconds())
			reg.Counter("ale_update_ns").Add(c.Elapsed("aleupdate").Nanoseconds())
		}
	}

	// Per kernel: the slowest rank id's time (in a bulk-synchronous run
	// it sets the wall clock), the rank-summed time, and the largest
	// call count.
	res.Timers, res.TimerSum, res.Calls = map[string]float64{}, map[string]float64{}, map[string]int64{}
	sum := map[string]time.Duration{}
	for _, id := range ids {
		c := d.byID[id].clock
		for _, n := range c.Names() {
			res.Timers[n] = max(res.Timers[n], c.Elapsed(n).Seconds())
			res.Calls[n] = max(res.Calls[n], c.Count(n))
			sum[n] += c.Elapsed(n)
		}
	}
	for n, t := range sum {
		res.TimerSum[n] = t.Seconds()
	}
	res.CommMsgs, res.CommWords = d.commMsgs, d.commWords
	res.E0, res.Mass0 = d.e0, d.mass0
	res.Obs = d.mergedObs()

	for _, id := range ids {
		pb := d.byID[id].probe
		if pb == nil {
			continue
		}
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
		for _, id := range ids {
			if err := d.byID[id].clock.WriteTraceFile(cfg.Trace); err != nil {
				return nil, err
			}
		}
	}
	if cfg.Metrics != "" {
		if err := writeMetricsFile(cfg.Metrics, *cfg, res, time.Since(d.start).Seconds()); err != nil {
			return nil, err
		}
	}
	return res, nil
}
