package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bookleaf"
	"bookleaf/internal/machine"
	"bookleaf/internal/serve"
)

// timeCalls is the mean duration of n calls of fn after one warm-up call.
func timeCalls(n int, fn func() error) (time.Duration, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return time.Since(t0) / time.Duration(n), nil
}

// resultJSON builds the wire result the daemon encodes for a done job.
func resultJSON(res *bookleaf.Result) *serve.ResultJSON {
	return &serve.ResultJSON{
		Problem: res.Problem, NEl: res.NEl, NNd: res.NNd, Steps: res.Steps, Time: res.Time,
		E0: res.E0, EFinal: res.EFinal, ExternalWork: res.ExternalWork,
		Mass0: res.Mass0, MassFinal: res.MassFinal, Rollbacks: res.Rollbacks,
		X: res.X, Y: res.Y, Rho: res.Rho, P: res.P, Ein: res.Ein, U: res.U, V: res.V,
	}
}

// serveTraced is the traced pass of serve_jobs: the closed loop again
// with a span around every client-side call, then the serving layer's
// pieces one at a time.
func (r *run) serveTraced() error {
	kinds, err := r.jobKinds()
	if err != nil {
		return err
	}
	sod := &kinds[0]
	calls := 200
	if r.Smoke {
		calls = 5
	}
	dir := func(name string) string {
		return filepath.Join(outDir, fmt.Sprintf("state.%d.%s", os.Getpid(), name))
	}

	// The closed loop, traced, on a fresh durable server: the last of the
	// opens that time the part of set-up before the first submit.
	var sv *server
	var opens []time.Duration
	for i := 0; i < r.scaled(coldStarts); i++ {
		if sv != nil {
			sv.close()
		}
		var d time.Duration
		if sv, d, err = openServer(dir("loop")); err != nil {
			return err
		}
		opens = append(opens, d)
	}
	defer os.RemoveAll(sv.dir)
	r.set("serve.open_ms", median(millis(opens)), len(opens))
	closed := false
	defer func() {
		if !closed {
			sv.close()
		}
	}()
	epoch := time.Now()
	recs := []*recorder{{lane: 0}, {lane: 1}}
	more := func(done int) bool { return done < r.scaled(batches) }
	st, _ := closedLoop(sv.ts.URL, kinds, r.mix(), more, 2, recs)
	for _, j := range st.jobs {
		r.op("served "+kinds[j.kind].name+" job", j.err)
	}
	if err := writeTrace(filepath.Join(outDir, "trace."+r.Workload+".json"), r.Workload, epoch, recs...); err != nil {
		return err
	}
	for _, rec := range recs {
		for name, d := range rec.selfTimes() {
			s := r.Extra["self_ms."+name]
			r.note("self_ms."+name, "ms", s.Value+ms(d), 1)
		}
	}
	st.clientMetrics(func(name, unit string, v float64, n int) {
		if _, ok := r.units["serve."+name]; ok {
			r.set("serve."+name, v, n)
		} else {
			r.note("serve."+name, unit, v, n)
		}
	})

	// One idle client: latency with nothing queued ahead, against what
	// the job costs with no server at all — the direct run, and the part
	// of it that is stepping. The three are taken turn by turn so that
	// their ratios see one host.
	idleJobs := 20
	if r.Smoke {
		idleJobs = 3
	}
	one := sod.cfg
	one.MaxSteps = 1
	var direct, direct1 []time.Duration
	var idle loopStats
	l := newLoop(sv.ts.URL, 1, nil)
	for i := 0; i < idleJobs; i++ {
		_, wall, _, err := timedRun(sod.cfg)
		r.op("direct run of the sod deck", err)
		direct = append(direct, wall)
		_, wall, _, err = timedRun(one)
		r.op("direct one-step run of the sod deck", err)
		direct1 = append(direct1, wall)
		idle.add(l.batch(kinds, []int{0}, i))
	}
	l.close()
	for _, j := range idle.jobs {
		r.op("served sod job, idle server", j.err)
	}
	directMs := median(millis(direct))
	steppingMs := directMs - median(millis(direct1))
	idleMs := median(millis(idle.latencies(0)))
	r.set("serve.overhead_ms", idleMs-directMs, idleJobs)
	r.set("serve.kernel_share", steppingMs/idleMs, idleJobs)
	r.set("serve.queue_wait_ms", median(millis(st.latencies(0)))-idleMs, len(st.latencies(0)))

	// Reads of a finished job, straight on the scheduler.
	done, ok := sv.s.Get("j000001") // the server numbers jobs from 1
	if !ok {
		return fmt.Errorf("job j000001 is gone from the server")
	}
	get, err := timeCalls(50*calls, func() error {
		j, ok := sv.s.Get(done.ID)
		if !ok || sv.s.Status(j).State != serve.StateDone {
			return fmt.Errorf("job %s is not done", done.ID)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("serve.get_us", us(get), 50*calls)
	doc := serve.JobResponse{Status: sv.s.Status(done), Result: resultJSON(sod.ref)}
	var encoded []byte
	encode, err := timeCalls(calls, func() (err error) {
		encoded, err = json.Marshal(&doc)
		return err
	})
	if err != nil {
		return err
	}
	r.set("serve.result_encode_ms", ms(encode), calls)
	r.set("serve.result_bytes", float64(len(encoded)), 1)

	// Restart on the state directory the closed loop left behind.
	sv.close()
	closed = true
	if fi, err := os.Stat(filepath.Join(sv.dir, "journal.ndjson")); err == nil {
		r.set("serve.journal_bytes", float64(fi.Size()), 1)
	}
	t0 := time.Now()
	again, err := serve.Open(serveOptions(sv.dir))
	reopen := time.Since(t0)
	if err != nil {
		return err
	}
	again.Close()
	r.set("serve.reopen_ms", ms(reopen), 1)

	// Admission alone (parse, predict, admit, journal; AdmitOnly skips
	// the run): durable against in-memory is what the journal costs.
	submit := func(s *serve.Server) (time.Duration, error) {
		defer s.Close()
		return timeCalls(calls, func() error {
			_, err := s.Submit(strings.NewReader(sod.deck), 0, "c0")
			return err
		})
	}
	opt := serveOptions(dir("admit"))
	opt.AdmitOnly = true
	defer os.RemoveAll(opt.StateDir)
	durable, err := serve.Open(opt)
	if err != nil {
		return err
	}
	durableSubmit, err := submit(durable)
	if err != nil {
		return err
	}
	memSubmit, err := submit(serve.New(opt))
	if err != nil {
		return err
	}
	r.set("serve.submit_direct_us", us(durableSubmit), calls)
	r.set("serve.submit_mem_us", us(memSubmit), calls)
	r.set("serve.journal_cost_us", us(durableSubmit-memSubmit), calls)

	parse, err := timeCalls(10*calls, func() error {
		_, err := deckConfig(sod.deck)
		return err
	})
	if err != nil {
		return err
	}
	r.set("config.parse_us", us(parse), 10*calls)

	// The admission model's estimate over the measured direct run, the
	// median over the decks.
	var ratios []float64
	for _, k := range kinds {
		est := machine.PredictRun(machine.RunShape{Problem: k.cfg.Problem, NX: k.cfg.NX, NY: k.cfg.NY,
			TEnd: k.cfg.TEnd, MaxSteps: k.cfg.MaxSteps, Threads: 1, Ranks: 1})
		ratios = append(ratios, est.Seconds/k.direct.Seconds())
	}
	r.set("machine.predict_ratio", median(ratios), len(ratios))
	gbs, arrayBytes := triad(1)
	r.set("machine.triad_gbs", gbs, 5)
	r.note("machine.triad_array_bytes", "B", float64(arrayBytes), 1)
	return nil
}
