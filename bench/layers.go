package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"bookleaf"
	"bookleaf/internal/ale"
	"bookleaf/internal/checkpoint"
	"bookleaf/internal/hydro"
	"bookleaf/internal/machine"
	"bookleaf/internal/mesh"
	"bookleaf/internal/order"
	"bookleaf/internal/par"
	"bookleaf/internal/partition"
	"bookleaf/internal/setup"
	"bookleaf/internal/typhon"
)

// The traced pass of the direct-run workloads. Every layer is measured
// from outside: the harness drives the same pipeline bookleaf.Run
// drives ("shadow driver") with a span around each public call, and
// times single layers on their own where the pipeline gives no clean
// boundary.

// shadowOut is one shadow-driver run.
type shadowOut struct {
	wall  time.Duration
	steps int
	// canon is the generated mesh, used the reordered one the run
	// stepped on (the same mesh when the config asks for no reorder).
	canon, used *mesh.Mesh
}

// shadow re-executes a serial run's pipeline from the layers' public
// functions: setup.ByName -> order.Reorder -> Problem.NewState -> loop
// of State.Step [+ Remapper.Apply], with the run's dt clamp to the end
// time. Ranks is ignored: the rank fan-out lives inside the root
// package and is measured by the direct runs instead.
func shadow(rec *recorder, cfg bookleaf.Config) (shadowOut, error) {
	var out shadowOut
	runtime.GC() // as timedRun does before a direct run
	t0 := time.Now()
	rec.begin("shadow.run")
	defer rec.end()

	rec.begin("setup.ByName")
	p, err := setup.ByName(cfg.Problem, cfg.NX, cfg.NY, 0)
	rec.end()
	if err != nil {
		return out, err
	}
	out.canon = p.Mesh
	if kind, _ := order.Parse(cfg.Reorder); kind != order.None {
		rec.begin("order.Reorder")
		p.Mesh, err = order.Reorder(p.Mesh, kind)
		rec.end()
		if err != nil {
			return out, err
		}
	}
	out.used = p.Mesh
	rec.begin("setup.NewState")
	s, err := p.NewState()
	rec.end()
	if err != nil {
		return out, err
	}
	s.Pool = par.New(max(cfg.Threads, 1))
	defer s.Pool.Close()
	var remap *ale.Remapper
	if cfg.ALE == "eulerian" {
		remap = ale.NewRemapper(ale.Options{Mode: ale.Eulerian}, s)
	}
	tEnd := p.TEnd
	if cfg.TEnd > 0 {
		tEnd = cfg.TEnd
	}
	hooks := &hydro.Hooks{ReduceDt: func(dt float64, e int) (float64, int) {
		if s.Time+dt > tEnd {
			dt = tEnd - s.Time
		}
		return dt, e
	}}
	for s.Time < tEnd-1e-12 && (cfg.MaxSteps == 0 || s.StepCount < cfg.MaxSteps) {
		rec.begin("hydro.Step")
		_, err := s.Step(nil, hooks)
		rec.end()
		if err != nil {
			return out, err
		}
		if remap != nil {
			rec.begin("ale.Apply")
			err := remap.Apply(s, nil, nil)
			rec.end()
			if err != nil {
				return out, err
			}
		}
	}
	out.steps = s.StepCount
	out.wall = time.Since(t0)
	return out, nil
}

// triad measures the host's sustainable memory bandwidth in this run:
// a[i] = b[i] + s*c[i] over three 64 MiB arrays (32 times one core's
// L2 on the reference host), one slice per thread, best of five sweeps,
// counting 24 bytes per element.
func triad(threads int) (gbs float64, arrayBytes int64) {
	const n = 8 << 20
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	best := time.Duration(1 << 62)
	for sweep := 0; sweep < 5; sweep++ {
		var wg sync.WaitGroup
		t0 := time.Now()
		for t := 0; t < threads; t++ {
			lo, hi := t*n/threads, (t+1)*n/threads
			wg.Add(1)
			go func() {
				defer wg.Done()
				aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range aa {
					aa[i] = bb[i] + 3*cc[i]
				}
			}()
		}
		wg.Wait()
		best = min(best, time.Since(t0))
	}
	return 24 * float64(n) / float64(best.Nanoseconds()), 8 * n
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// developed builds the config's serial state a few steps in, so shocks
// exist and the viscosity kernel has real work, as the repository's
// Table-II benchmarks do.
func developed(cfg bookleaf.Config, steps int) (*hydro.State, error) {
	p, err := setup.ByName(cfg.Problem, cfg.NX, cfg.NY, 0)
	if err != nil {
		return nil, err
	}
	s, err := p.NewState()
	if err != nil {
		return nil, err
	}
	for i := 0; i < steps; i++ {
		if _, err := s.Step(nil, nil); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// rounds is how often the traced pass repeats a whole run it reads a
// time from, at the nominal run length; it keeps the fastest.
const rounds = 8

// fastest runs fn n times and returns the shortest duration it reported.
func fastest(n int, fn func() (time.Duration, error)) (time.Duration, error) {
	best := time.Duration(1 << 62)
	for i := 0; i < n; i++ {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		best = min(best, d)
	}
	return best, nil
}

// fastestRun is fastest over direct runs of a config.
func (r *run) fastestRun(what string, cfg bookleaf.Config) (res *bookleaf.Result, wall time.Duration, err error) {
	wall, err = fastest(r.scaled(rounds), func() (time.Duration, error) {
		var d time.Duration
		res, d, _, err = timedRun(cfg)
		r.op(what, err)
		return d, err
	})
	return res, wall, err
}

// fastestShadow is fastest over untraced shadow runs of a config.
func (r *run) fastestShadow(what string, cfg bookleaf.Config) (out shadowOut, err error) {
	wall, err := fastest(r.scaled(rounds), func() (time.Duration, error) {
		out, err = shadow(nil, cfg)
		r.op(what, err)
		return out.wall, err
	})
	out.wall = wall
	return out, err
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }
func ms(d time.Duration) float64           { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64           { return float64(d.Nanoseconds()) / 1e3 }

// runTraced is the traced pass of a direct-run workload.
func (r *run) runTraced(c runCase) error {
	cfg := c.cfg
	threads, ranks := max(cfg.Threads, 1), max(cfg.Ranks, 1)

	gbs, arrayBytes := triad(max(threads, ranks))
	r.set("machine.triad_gbs", gbs, 5)
	r.note("machine.triad_array_bytes", "B", float64(arrayBytes), 1)
	r.note("machine.triad_l3_resident", "bool", b2f(arrayBytes < r.Env.L3Bytes), 1)

	// The root-package driver first, which also warms the heap for the
	// shadow runs that are set against it. The serial-equivalent config
	// is the one the shadow mirrors.
	serial := cfg
	serial.Ranks = 1
	one := serial
	one.MaxSteps = 1
	resN, wallN, err := r.fastestRun("serial-equivalent run", serial)
	if err != nil {
		return err
	}
	_, wall1, err := r.fastestRun("serial-equivalent one-step run", one)
	if err != nil {
		return err
	}
	// The same one step through the shadow, on the same heap: what the
	// run pays beyond its layers (result assembly, pool spawn) is the
	// difference.
	pipe1, err := r.fastestShadow("one-step shadow run", one)
	if err != nil {
		return err
	}

	// The pipeline, untraced and traced; the difference is what the
	// harness's own spans cost. The fastest traced run's spans are kept.
	plain, err := r.fastestShadow("untraced shadow run", cfg)
	if err != nil {
		return err
	}
	var rec *recorder
	var traced shadowOut
	var epoch time.Time
	for i := 0; i < r.scaled(rounds); i++ {
		t0, rc := time.Now(), &recorder{rep: i}
		out, err := shadow(rc, cfg)
		r.op("traced shadow run", err)
		if err != nil {
			return err
		}
		if rec == nil || out.wall < traced.wall {
			rec, traced, epoch = rc, out, t0
		}
	}
	if err := writeTrace(filepath.Join(outDir, "trace."+r.Workload+".json"), r.Workload, epoch, rec); err != nil {
		return err
	}
	r.set("bench.trace_overhead_frac", traced.wall.Seconds()/plain.wall.Seconds()-1, 1)
	nel, steps := traced.used.NEl, traced.steps
	r.note("nel", "count", float64(nel), 1)
	r.note("steps", "count", float64(steps), 1)
	for name, d := range rec.selfTimes() {
		r.note("self_ms."+name, "ms", ms(d), 1)
	}

	byName, _ := rec.total("setup.ByName")
	newState, _ := rec.total("setup.NewState")
	reorder, _ := rec.total("order.Reorder")
	stepTotal, _ := rec.total("hydro.Step")
	aleTotal, _ := rec.total("ale.Apply")
	r.set("setup.build_ms", ms(byName+newState), 1)
	stepNs := nsPer(stepTotal, steps*nel)
	aleNs := nsPer(aleTotal, steps*nel)
	r.set("hydro.step_ns_per_el", stepNs, steps)

	// The step against the machine model: bytes are computed from the
	// model's kernel table (cache misses ignored), not measured.
	var stepBytes float64
	for _, k := range machine.FusedKernels() {
		stepBytes += k.Bytes * k.CallsPerStep
	}
	r.set("hydro.step_bytes_per_el", stepBytes, 1)
	r.set("hydro.achieved_gbs", stepBytes/stepNs, steps)
	r.set("hydro.roofline_frac", stepBytes/stepNs/gbs, steps)
	working := liveStateBytes(cfg)
	if working == 0 {
		return fmt.Errorf("could not size the %s state", cfg.Problem)
	}
	r.note("working_set_bytes", "B", float64(working), 1)
	r.set("setup.bytes_per_el", float64(working)/float64(nel), 1)

	driverNs := nsPer(wallN-wall1, (resN.Steps-1)*nel)
	r.set("driver.ns_per_el_step", driverNs, 1)
	r.set("driver.overhead_ns_per_el", driverNs-stepNs-aleNs, 1)
	r.set("driver.nonstep_ms", ms(wall1-pipe1.wall), 1)
	// Shares are taken within the one traced run, numerator and
	// denominator under the same host conditions; what Run adds to the
	// pipeline's wall is driver.overhead_ns_per_el above.
	r.set("hydro.share", stepTotal.Seconds()/traced.wall.Seconds(), 1)

	if cfg.ALE != "" {
		r.set("ale.apply_ns_per_el", aleNs, steps)
		r.set("ale.share", aleTotal.Seconds()/traced.wall.Seconds(), 1)
		if err := r.aleAllocs(cfg); err != nil {
			return err
		}
	}
	if threads > 1 {
		if err := r.parLayer(cfg, plain.wall); err != nil {
			return err
		}
	}
	if ranks > 1 {
		r.set("order.hilbert_ms", ms(reorder), 1)
		return r.flatLayers(cfg, traced, wallN)
	}
	if cfg.ALE == "" && threads == 1 {
		return r.plainLayers(cfg)
	}
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// liveStateBytes is the heap a built problem and state keep alive: the
// workload's working set, to set against the cache sizes in env.
func liveStateBytes(cfg bookleaf.Config) uint64 {
	before := liveHeap()
	p, err := setup.ByName(cfg.Problem, cfg.NX, cfg.NY, 0)
	if err != nil {
		return 0
	}
	s, err := p.NewState()
	if err != nil {
		return 0
	}
	after := liveHeap()
	runtime.KeepAlive(p)
	runtime.KeepAlive(s)
	return after - min(before, after)
}

// aleAllocs counts heap allocations per steady-state remap.
func (r *run) aleAllocs(cfg bookleaf.Config) error {
	s, err := developed(cfg, 5)
	if err != nil {
		return err
	}
	remap := ale.NewRemapper(ale.Options{Mode: ale.Eulerian}, s)
	const n = 10
	var allocs uint64
	for i := 0; i <= n; i++ {
		m0 := mallocs()
		if err := remap.Apply(s, nil, nil); err != nil {
			return err
		}
		if i > 0 { // the first Apply warms the scratch
			allocs += mallocs() - m0
		}
		if _, err := s.Step(nil, nil); err != nil {
			return err
		}
	}
	r.set("ale.apply_allocs", float64(allocs)/n, n)
	return nil
}

// parLayer times the thread pool at the workload's width: one dispatch
// with a trivial body, one min-reduction, and the whole pipeline at one
// thread against its own width.
func (r *run) parLayer(cfg bookleaf.Config, wallWide time.Duration) error {
	pool := par.New(cfg.Threads)
	defer pool.Close()
	const calls, n = 20000, 1 << 14
	body := func(lo, hi int) {}
	pool.For(n, body)
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		pool.For(n, body)
	}
	r.set("par.dispatch_ns", nsPer(time.Since(t0), calls), calls)
	f := func(i int) float64 { return float64(n - i) }
	t0 = time.Now()
	for i := 0; i < calls/10; i++ {
		pool.ReduceMin(n, f)
	}
	r.set("par.reduce_min_ns", nsPer(time.Since(t0), calls/10), calls/10)

	narrow := cfg
	narrow.Threads = 1
	out, err := r.fastestShadow("one-thread shadow run", narrow)
	if err != nil {
		return err
	}
	r.set("par.speedup_t2", out.wall.Seconds()/wallWide.Seconds(), r.scaled(rounds))
	return nil
}

// flatLayers measures what only the multi-rank workload runs: the other
// reordering, the partitioner and split, typhon over the real halo of
// that split, and the parallel driver against the serial one.
func (r *run) flatLayers(cfg bookleaf.Config, sh shadowOut, serialWall time.Duration) error {
	const window = machine.DefaultReuseWindow
	none := machine.MeshReuse(sh.canon.ElNd, sh.canon.NNd, window)
	hilbert := machine.MeshReuse(sh.used.ElNd, sh.used.NNd, window)
	r.set("order.reuse_window", hilbert.MissRate/none.MissRate, 1)
	r.note("order.miss_rate_none", "ratio", none.MissRate, 1)
	r.note("order.miss_rate_hilbert", "ratio", hilbert.MissRate, 1)
	t0 := time.Now()
	if _, err := order.Reorder(sh.canon, order.RCM); err != nil {
		return err
	}
	r.set("order.rcm_ms", ms(time.Since(t0)), 1)

	ranks := cfg.Ranks
	split := func(m *mesh.Mesh) (part []int, subs []*partition.SubMesh, rcb, cut time.Duration, err error) {
		t0 := time.Now()
		if part, err = partition.RCBMesh(m, ranks); err != nil {
			return
		}
		rcb = time.Since(t0)
		t0 = time.Now()
		subs, err = partition.Split(m, part, ranks)
		return part, subs, rcb, time.Since(t0), err
	}
	part, subs, rcb, cut, err := split(sh.used)
	if err != nil {
		return err
	}
	r.set("partition.edge_cut", float64(partition.DualGraph(sh.used).EdgeCut(part)), 1)
	r.set("partition.imbalance", partition.Imbalance(part, nil, ranks), 1)

	// The nodal-kinematics exchange (four fields, stride 1) and the dt
	// reduction, blocking, between rank goroutines as in a run.
	const exchanges, reduces = 2000, 20000
	comm, err := typhon.NewComm(ranks)
	if err != nil {
		return err
	}
	var exchange, reduce time.Duration
	errs := make([]error, ranks)
	if err := comm.Run(func(rk *typhon.Rank) {
		sm := subs[rk.ID()]
		halo := typhon.NewHalo(sm.NdSend, sm.NdRecv)
		fields := make([][]float64, 4)
		for i := range fields {
			fields[i] = make([]float64, sm.M.NNd)
		}
		fail := func(err error) bool {
			if err != nil && errs[rk.ID()] == nil {
				errs[rk.ID()] = err
			}
			return err != nil
		}
		for i := 0; i < 10; i++ {
			if fail(rk.Exchange(halo, 1, fields...)) {
				return
			}
		}
		t0 := time.Now()
		for i := 0; i < exchanges; i++ {
			if fail(rk.Exchange(halo, 1, fields...)) {
				return
			}
		}
		if rk.ID() == 0 {
			exchange = time.Since(t0)
		}
		t0 = time.Now()
		for i := 0; i < reduces; i++ {
			if _, err := rk.AllReduceMin(float64(i)); fail(err) {
				return
			}
		}
		if rk.ID() == 0 {
			reduce = time.Since(t0)
		}
	}); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	r.set("typhon.exchange_us", us(exchange)/exchanges, exchanges)
	r.set("typhon.allreduce_us", us(reduce)/reduces, reduces)

	res, wallN, err := r.fastestRun("multi-rank run", cfg)
	if err != nil {
		return err
	}
	r.set("typhon.msgs_per_step", float64(res.CommMsgs)/float64(res.Steps), res.Steps)
	r.set("typhon.words_per_step", float64(res.CommWords)/float64(res.Steps), res.Steps)
	r.set("driver.speedup_ranks2", serialWall.Seconds()/wallN.Seconds(), r.scaled(rounds))

	// One step through the parallel driver against the same step through
	// the shadow plus a partition, on the same heap.
	one := cfg
	one.MaxSteps = 1
	_, wall1, err := r.fastestRun("multi-rank one-step run", one)
	if err != nil {
		return err
	}
	pipe1, err := r.fastestShadow("one-step shadow run", one)
	if err != nil {
		return err
	}
	for i := 0; i < r.scaled(rounds); i++ {
		_, _, rcb2, cut2, err := split(pipe1.used)
		if err != nil {
			return err
		}
		rcb, cut = min(rcb, rcb2), min(cut, cut2)
	}
	r.set("driver.nonstep_ms", ms(wall1-pipe1.wall-rcb-cut), r.scaled(rounds))
	r.set("partition.rcb_ms", ms(rcb), 1+r.scaled(rounds))
	r.set("partition.split_ms", ms(cut), 1+r.scaled(rounds))
	return nil
}

// plainLayers measures what the plain serial Lagrangian workload is the
// baseline for: the Table-II kernels one by one, the step's allocation
// count, the checkpoint layer on its state, and what probes, a Control
// and obs tracing add to a run.
func (r *run) plainLayers(cfg bookleaf.Config) error {
	s, err := developed(cfg, 10)
	if err != nil {
		return err
	}
	nel := s.Mesh.NEl
	const stepsCounted = 20
	m0 := mallocs()
	for i := 0; i < stepsCounted; i++ {
		if _, err := s.Step(nil, nil); err != nil {
			return err
		}
	}
	r.set("hydro.step_allocs", float64(mallocs()-m0)/stepsCounted, stepsCounted)

	// Capture before the kernel loop below leaves the state mid-step.
	var capture, write, read []time.Duration
	var sn *checkpoint.Snapshot
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		sn = checkpoint.Capture(s, cfg.Problem, cfg.NX, cfg.NY)
		capture = append(capture, time.Since(t0))
	}
	path := filepath.Join(outDir, fmt.Sprintf("ckpt.%d", os.Getpid()))
	defer os.Remove(path)
	var size int64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := sn.Write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		write = append(write, time.Since(t0))
		t0 = time.Now()
		f, err = os.Open(path)
		if err != nil {
			return err
		}
		_, err = checkpoint.Read(f)
		f.Close()
		if err != nil {
			return err
		}
		read = append(read, time.Since(t0))
		if st, err := os.Stat(path); err == nil {
			size = st.Size()
		}
	}
	r.set("checkpoint.capture_ms", median(millis(capture)), len(capture))
	r.set("checkpoint.write_ms", median(millis(write)), len(write))
	r.set("checkpoint.read_ms", median(millis(read)), len(read))
	r.set("checkpoint.bytes_per_el", float64(size)/float64(nel), 1)

	kernels := []struct {
		name string
		fn   func()
	}{
		{"getq", func() { s.GetQ(0, nel) }},
		{"getforce", func() { s.GetForce(0, nel, s.U, s.V) }},
		{"getacc", func() { s.GetAcc(1e-6) }},
		{"getdt", func() { s.GetDt() }},
		{"getgeom", func() { _ = s.GetGeom(1e-9, s.U, s.V, 0, nel) }},
		{"getrho", func() { s.GetRho(0, nel) }},
		{"getein", func() { s.GetEin(1e-9, s.U, s.V, 0, nel) }},
		{"getpc", func() { s.GetPC(0, nel) }},
		{"qforce", func() { s.GetQForce(0, nel, s.U, s.V) }},
		{"lagupdate", func() { _, _ = s.FusedUpdate(1e-9, s.U, s.V, 0, nel) }},
	}
	const calls = 100
	for _, k := range kernels {
		copy(s.U0, s.U)
		copy(s.V0, s.V)
		copy(s.Ein0, s.Ein)
		copy(s.X0, s.X)
		copy(s.Y0, s.Y)
		k.fn()
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			k.fn()
		}
		r.set("hydro."+k.name+"_ns_per_el", nsPer(time.Since(t0), calls*nel), calls)
	}

	// What the driver's optional machinery adds: the fastest of several
	// interleaved runs each, so one disturbed run does not read as
	// overhead.
	tracePrefix := filepath.Join(outDir, fmt.Sprintf("obs.%d", os.Getpid()))
	defer os.Remove(tracePrefix + ".rank0.trace.json")
	variants := []struct {
		metric string
		with   func(*bookleaf.Config)
	}{
		{"", func(*bookleaf.Config) {}},
		{"driver.probes_overhead_frac", func(c *bookleaf.Config) { c.ProbeEvery = 10 }},
		{"driver.control_overhead_frac", func(c *bookleaf.Config) { c.Control = &bookleaf.Control{} }},
		{"obs.trace_overhead_frac", func(c *bookleaf.Config) { c.Trace = tracePrefix }},
	}
	n := r.scaled(rounds)
	best := make([]time.Duration, len(variants))
	for round := 0; round < n; round++ {
		for i, v := range variants {
			c := cfg
			v.with(&c)
			_, wall, _, err := timedRun(c)
			r.op("run with "+v.metric, err)
			if err != nil {
				return err
			}
			if round == 0 || wall < best[i] {
				best[i] = wall
			}
		}
	}
	for i, v := range variants[1:] {
		r.set(v.metric, best[i+1].Seconds()/best[0].Seconds()-1, n)
	}
	return nil
}
