package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bookleaf"
	"bookleaf/internal/config"
	"bookleaf/internal/serve"
)

// The served workload's two decks. They are generated here, not read
// from decks/, so the program only ever sees the harness's inputs; the
// first is decks/sod.deck's configuration.
const (
	sodDeck = "[control]\nproblem = sod\nnx = 200\nny = 4\ntend = 0.25\n"
	nohDeck = "[control]\nproblem = noh\nnx = 48\nny = 48\ntend = 0.6\n"

	smokeSodDeck = "[control]\nproblem = sod\nnx = 40\nny = 2\ntend = 0.05\n"
	smokeNohDeck = "[control]\nproblem = noh\nnx = 12\nny = 12\ntend = 0.1\n"

	// The closed loop runs in batches of batchJobs jobs, nohPerBatch of
	// them Noh and the rest Sod: every batch carries the same work, so
	// batches compare, and the fastest is the phase's time. A batch is
	// about a second, as short as the 85:15 mix allows.
	batchJobs   = 7
	nohPerBatch = 1
	// Both passes run batches of them at the nominal run length: a fixed
	// number, because the server keeps every finished job's result and
	// peak memory follows the job count. They take two thirds of the
	// end-to-end run's seconds on a quiet host; on one so slow that they
	// do not fit, the pass stops when the seconds are up, though never
	// before minBatches.
	batches      = 20
	minBatches   = 3
	pollInterval = 5 * time.Millisecond
	jobTimeout   = 60 * time.Second
)

// jobKind is one deck with the result a direct bookleaf.Run of it gives,
// computed once during set-up; every served result must equal it bitwise.
type jobKind struct {
	name string
	deck string
	cfg  bookleaf.Config
	ref  *bookleaf.Result
	// direct is the wall of the reference run.
	direct time.Duration
}

func deckConfig(deck string) (bookleaf.Config, error) {
	d, err := config.ParseLimit(strings.NewReader(deck), 1<<20)
	if err != nil {
		return bookleaf.Config{}, err
	}
	return bookleaf.ConfigFromDeck(d)
}

func (r *run) jobKinds() ([]jobKind, error) {
	kinds := []jobKind{{name: "sod", deck: sodDeck}, {name: "noh", deck: nohDeck}}
	if r.Smoke {
		kinds[0].deck, kinds[1].deck = smokeSodDeck, smokeNohDeck
	}
	for i := range kinds {
		k := &kinds[i]
		var err error
		if k.cfg, err = deckConfig(k.deck); err != nil {
			return nil, fmt.Errorf("%s deck: %w", k.name, err)
		}
		if k.ref, k.direct, _, err = timedRun(k.cfg); err != nil {
			return nil, fmt.Errorf("reference run of the %s deck: %w", k.name, err)
		}
	}
	return kinds, nil
}

// jobMix draws the job sequence from the seed, batch after batch: every
// batch has exactly nohPerBatch Noh jobs, so every batch of every seed
// carries the same work, and the seed decides the order within each.
type jobMix struct {
	rng      *rand.Rand
	perBatch int
}

func newJobMix(seed int64, perBatch int) *jobMix {
	return &jobMix{rand.New(rand.NewSource(seed)), perBatch}
}

// next is the next batch: one deck index per job.
func (m *jobMix) next() []int {
	batch := make([]int, m.perBatch)
	for i := 0; i < nohPerBatch; i++ {
		batch[i] = 1
	}
	m.rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	return batch
}

// mix is the run's job sequence: batches of seven, of six in a smoke run.
func (r *run) mix() *jobMix {
	if r.Smoke {
		return newJobMix(r.Seed, 6)
	}
	return newJobMix(r.Seed, batchJobs)
}

// equalResult reports the first field of a decoded served result that
// is not bitwise the direct run's.
func equalResult(got *serve.ResultJSON, want *bookleaf.Result) error {
	if got == nil {
		return fmt.Errorf("done job carries no result")
	}
	if got.Problem != want.Problem || got.NEl != want.NEl || got.NNd != want.NNd ||
		got.Steps != want.Steps || got.Rollbacks != want.Rollbacks {
		return fmt.Errorf("result header differs: %s %d el %d steps", got.Problem, got.NEl, got.Steps)
	}
	scalars := [][2]float64{
		{got.Time, want.Time}, {got.E0, want.E0}, {got.EFinal, want.EFinal},
		{got.ExternalWork, want.ExternalWork}, {got.Mass0, want.Mass0}, {got.MassFinal, want.MassFinal},
	}
	for i, s := range scalars {
		if math.Float64bits(s[0]) != math.Float64bits(s[1]) {
			return fmt.Errorf("scalar %d: %v, direct run %v", i, s[0], s[1])
		}
	}
	fields := []struct {
		name      string
		got, want []float64
	}{
		{"x", got.X, want.X}, {"y", got.Y, want.Y}, {"rho", got.Rho, want.Rho}, {"p", got.P, want.P},
		{"ein", got.Ein, want.Ein}, {"u", got.U, want.U}, {"v", got.V, want.V},
	}
	for _, f := range fields {
		if len(f.got) != len(f.want) {
			return fmt.Errorf("%s has %d values, direct run %d", f.name, len(f.got), len(f.want))
		}
		for i := range f.got {
			if math.Float64bits(f.got[i]) != math.Float64bits(f.want[i]) {
				return fmt.Errorf("%s[%d] = %v, direct run %v", f.name, i, f.got[i], f.want[i])
			}
		}
	}
	return nil
}

// server is a durable daemon behind an HTTP listener.
type server struct {
	s   *serve.Server
	ts  *httptest.Server
	dir string
}

func serveOptions(dir string) serve.Options {
	return serve.Options{Workers: 1, Threads: 1, StateDir: dir}
}

// openServer is the served workload's set-up: open a durable server on
// an empty state directory and put a listener in front of it, until the
// first submit can be sent.
func openServer(dir string) (*server, time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	s, err := serve.Open(serveOptions(dir))
	if err != nil {
		return nil, 0, err
	}
	ts := httptest.NewServer(s.Handler())
	return &server{s, ts, dir}, time.Since(t0), nil
}

func (sv *server) close() {
	sv.ts.Close()
	sv.s.Close()
}

// jobStat is one served job as its client saw it.
type jobStat struct {
	kind    int
	latency time.Duration // POST sent -> full result decoded
	submit  time.Duration // POST sent -> 202 received
	polls   int
	err     error
}

// loopStats is one closed-loop phase.
type loopStats struct {
	jobs     []jobStat
	polls    []time.Duration // GET /v1/jobs/{id} latencies
	late     []time.Duration // how far behind its 5 ms schedule each poll was sent
	rejected int             // submits answered other than 202
	wall     time.Duration
	cpu      time.Duration
}

func (st *loopStats) add(o loopStats) {
	st.jobs = append(st.jobs, o.jobs...)
	st.polls = append(st.polls, o.polls...)
	st.late = append(st.late, o.late...)
	st.rejected += o.rejected
	st.wall += o.wall
	st.cpu += o.cpu
}

func (st *loopStats) latencies(kind int) []time.Duration {
	var out []time.Duration
	for _, j := range st.jobs {
		if j.err == nil && (kind < 0 || j.kind == kind) {
			out = append(out, j.latency)
		}
	}
	return out
}

// client is one closed-loop client: one keep-alive connection, one job
// in flight, the next submitted only once the last result is verified.
type client struct {
	name  string
	base  string
	http  *http.Client
	rec   *recorder
	stats loopStats
}

func newClient(name, base string, rec *recorder) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{name: name, base: base, http: &http.Client{Transport: tr}, rec: rec}
}

func (c *client) do(span, method, url string, body io.Reader) (int, []byte, time.Duration, error) {
	c.rec.begin(span)
	defer c.rec.end()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("X-Client", c.name)
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, time.Since(t0), err
}

// job submits one deck, polls every 5 ms until the job is done, decodes
// the result and verifies it against the direct run.
func (c *client) job(kindIdx int, k *jobKind) jobStat {
	c.rec.begin("job")
	defer c.rec.end()
	js := jobStat{kind: kindIdx}
	t0 := time.Now()
	status, body, d, err := c.do("http.submit", "POST", c.base+"/v1/jobs", strings.NewReader(k.deck))
	js.submit = d
	if err == nil && status != http.StatusAccepted {
		c.stats.rejected++
		err = fmt.Errorf("submit answered %d: %s", status, bytes.TrimSpace(body))
	}
	var sub serve.SubmitResponse
	if err == nil {
		err = json.Unmarshal(body, &sub)
	}
	if err != nil {
		js.err = err
		return js
	}
	url := c.base + "/v1/jobs/" + sub.ID
	due := time.Now()
	for {
		due = due.Add(pollInterval)
		time.Sleep(time.Until(due))
		late := max(time.Since(due), 0)
		status, body, d, err := c.do("http.poll", "GET", url, nil)
		if err != nil || status != http.StatusOK {
			js.err = fmt.Errorf("poll answered %d: %v", status, err)
			return js
		}
		js.polls++
		c.stats.polls = append(c.stats.polls, d)
		c.stats.late = append(c.stats.late, late)
		c.rec.begin("decode")
		var jr serve.JobResponse
		err = json.Unmarshal(body, &jr)
		c.rec.end()
		if err != nil {
			js.err = err
			return js
		}
		switch jr.State {
		case serve.StateDone:
			js.latency = time.Since(t0)
			c.rec.begin("verify")
			js.err = equalResult(jr.Result, k.ref)
			c.rec.end()
			return js
		case serve.StateFailed, serve.StateCanceled:
			js.err = fmt.Errorf("job %s ended %s: %s", sub.ID, jr.State, jr.Error)
			return js
		}
		if time.Since(t0) > jobTimeout {
			js.err = fmt.Errorf("job %s not done after %v", sub.ID, jobTimeout)
			return js
		}
		if now := time.Now(); now.After(due) {
			due = now // a slow poll restarts the schedule, it does not burst
		}
	}
}

// loop is a set of closed-loop clients on one server.
type loop struct {
	clients []*client
}

// newLoop connects n clients; recs, when not nil, gives each a recorder.
func newLoop(base string, n int, recs []*recorder) *loop {
	l := &loop{}
	for i := 0; i < n; i++ {
		var rec *recorder
		if recs != nil {
			rec = recs[i]
		}
		l.clients = append(l.clients, newClient(fmt.Sprintf("c%d", i), base, rec))
	}
	return l
}

func (l *loop) close() {
	for _, c := range l.clients {
		c.http.CloseIdleConnections()
	}
}

// batch runs one batch of jobs through the server, each client drawing
// the next job when its last is verified, and returns when all are done.
func (l *loop) batch(kinds []jobKind, mix []int, rep int) loopStats {
	var next atomic.Int64
	var wg sync.WaitGroup
	runtime.GC()
	c0, t0 := cpuTime(), time.Now()
	for _, c := range l.clients {
		c.stats = loopStats{}
		if c.rec != nil {
			c.rec.rep = rep
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(mix) {
					return
				}
				c.stats.jobs = append(c.stats.jobs, c.job(mix[i], &kinds[mix[i]]))
			}
		}()
	}
	wg.Wait()
	wall, cpu := time.Since(t0), cpuTime()-c0
	var total loopStats
	for _, c := range l.clients {
		total.add(c.stats)
	}
	total.wall, total.cpu = wall, cpu
	return total
}

// closedLoop runs batch after batch for as long as more, asked with the
// number of batches done, says so, and returns the phase's totals and
// each batch's wall time.
func closedLoop(base string, kinds []jobKind, mix *jobMix, more func(done int) bool, clients int, recs []*recorder) (total loopStats, walls []time.Duration) {
	l := newLoop(base, clients, recs)
	defer l.close()
	for b := 0; more(b); b++ {
		st := l.batch(kinds, mix.next(), b)
		total.add(st)
		walls = append(walls, st.wall)
	}
	return total, walls
}

// clientMetrics are the served client's view of a closed-loop phase.
// The tail is the highest percentile with ten samples beyond it.
func (st *loopStats) clientMetrics(emit func(name, unit string, v float64, n int)) {
	lat := millis(st.latencies(-1))
	var submits []time.Duration
	polls := 0
	for _, j := range st.jobs {
		submits = append(submits, j.submit)
		polls += j.polls
	}
	tail := tailPercentile(len(lat))
	emit("job_p50_ms", "ms", median(lat), len(lat))
	emit("job_tail_ms", "ms", percentile(lat, tail), len(lat))
	emit("job_tail_pct", "%", tail, len(lat))
	emit("submit_p50_ms", "ms", median(millis(submits)), len(submits))
	emit("poll_p50_ms", "ms", median(millis(st.polls)), len(st.polls))
	emit("poll_p99_ms", "ms", percentile(millis(st.polls), 99), len(st.polls))
	emit("poll_late_p99_ms", "ms", percentile(millis(st.late), 99), len(st.late))
	emit("jobs_per_s", "1/s", float64(len(lat))/st.wall.Seconds(), len(lat))
	emit("polls_per_job", "count", float64(polls)/float64(max(len(st.jobs), 1)), len(st.jobs))
	emit("rejected", "count", float64(st.rejected), len(st.jobs))
}

// coldStarts is how many fresh servers the set-up time is read from, at
// the nominal run length.
const coldStarts = 30

// coldStart is the served workload's set-up as its user pays it: open a
// durable server on an empty state directory, put a listener in front of
// it, connect, and take one Sod job through it, from nothing to the
// first verified result. opened is the part before the first submit
// could be sent.
func coldStart(dir string, sod *jobKind) (sv *server, opened, total time.Duration, first jobStat, err error) {
	t0 := time.Now()
	if sv, opened, err = openServer(dir); err != nil {
		return nil, 0, 0, first, err
	}
	l := newLoop(sv.ts.URL, 1, nil)
	first = l.clients[0].job(0, sod)
	l.close()
	return sv, opened, time.Since(t0), first, nil
}

// serveEndToEnd is the untraced pass of serve_jobs: set-up cost from
// repeated cold starts, then the closed-loop phase on the last server
// started, whose time to solution is one batch's wall.
func (r *run) serveEndToEnd() error {
	kinds, err := r.jobKinds()
	if err != nil {
		return err
	}
	var sv *server
	var opened, setup []time.Duration
	for i := 0; i < r.scaled(coldStarts); i++ {
		if sv != nil {
			sv.close()
		}
		var open, total time.Duration
		var first jobStat
		sv, open, total, first, err = coldStart(filepath.Join(outDir, fmt.Sprintf("state.%d.%d", os.Getpid(), i)), &kinds[0])
		if err != nil {
			return err
		}
		defer os.RemoveAll(sv.dir)
		r.op("first job of a fresh server", first.err)
		opened = append(opened, open)
		setup = append(setup, total)
	}
	defer sv.close()

	more := func(done int) bool { return done < r.scaled(batches) && r.another(done, minBatches) }
	st, walls := closedLoop(sv.ts.URL, kinds, r.mix(), more, 2, nil)
	for _, j := range st.jobs {
		r.op("served "+kinds[j.kind].name+" job", j.err)
	}
	r.setTimes(setup, walls)
	r.note("open_ms", "ms", median(millis(opened)), len(opened))
	r.note("cpu_s", "s", st.cpu.Seconds()/float64(len(walls)), len(walls))
	st.clientMetrics(r.note)
	return nil
}
