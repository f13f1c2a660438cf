// Package serve turns the bookleaf library into a simulation service:
// a priority job queue and scheduler running at most Workers jobs at
// once, with admission control driven by the internal/machine cost
// predictor and preemption/resume of running jobs through the
// checkpoint in-memory gather. Each run owns its thread pools, as any
// bookleaf.Run does.
//
// The design splits in two layers. This file is the scheduler: jobs,
// the queue, the worker slots, admission and preemption — all plain Go
// behind one mutex, no HTTP. http.go maps it onto the /v1/jobs wire
// API. Tests drive either layer directly.
//
// Invariants the tests pin down:
//
//   - At most Workers jobs run at once; a job's worker slot is free
//     again before its terminal state is observable.
//   - A job's admission estimate joins the backlog at admit time and
//     leaves it exactly once, at the job's terminal state.
//   - A preempted job loses no steps: its next leg resumes from the
//     collective in-memory snapshot, and the per-leg obs snapshots
//     merge into the totals an uninterrupted run would report.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"bookleaf"
	"bookleaf/internal/atomicfile"
	"bookleaf/internal/checkpoint"
	"bookleaf/internal/config"
	"bookleaf/internal/machine"
	"bookleaf/internal/obs"
)

// Options configures a Server.
type Options struct {
	// Workers is the number of simulations run concurrently (default 2).
	Workers int
	// Threads is the thread-pool width of each one-rank job (default
	// 1), whatever width its deck declares. A multi-rank deck runs each
	// rank at its own declared width and occupies one worker slot.
	Threads int
	// BudgetSeconds is the admission budget: a deck is rejected when
	// the predicted backlog (admitted-but-unfinished seconds) plus its
	// own estimate would exceed it (default 600).
	BudgetSeconds float64
	// MaxDeckBytes bounds a submitted deck (default 1 MiB).
	MaxDeckBytes int64
	// MaxRanks and MaxThreads cap the parallelism a deck may declare
	// for itself (defaults 8 and 16; MaxRanks also caps [supervise]
	// repart_ranks): an untrusted ranks=10^5 or threads=10^6 deck is a
	// goroutine bomb, rejected 400 at admission.
	MaxRanks   int
	MaxThreads int
	// MaxElements caps the mesh a deck may request — NX, NY, and their
	// product (default 4 Mi elements). Rejected 400 at admission.
	MaxElements int
	// MaxTerminalJobs bounds how many finished jobs are retained for GET
	// after reaching a terminal state (default 512). The oldest terminal
	// job is evicted first, and its result file with it; an evicted ID
	// answers 404. A durable server keeps a done job's field arrays in
	// its <id>.res file, so what it holds in memory per retained job is
	// the status and obs snapshot; an in-memory server also holds the
	// seven result field arrays.
	MaxTerminalJobs int
	// AdmitOnly short-circuits execution: submissions are parsed,
	// predicted and admitted, then complete immediately without
	// running. The fuzz harness uses it to hammer the submission path
	// without paying for hydrodynamics.
	AdmitOnly bool
	// StateDir, when non-empty, makes the server durable: every
	// submission, state transition and terminal outcome is appended to
	// an fsynced NDJSON journal in the directory, preemption snapshots
	// spill to disk next to it, a done job's result is written there as
	// <id>.res and served from it, and Open replays it all on restart —
	// queued work re-admits, interrupted jobs resume from their last
	// spill, retained done jobs serve their results again, and the
	// calibrator's learned scale survives. Durable servers must be built
	// with Open (which can fail on an unusable directory); New ignores
	// StateDir.
	StateDir string
	// SpillInterval is the cadence at which a durable server
	// checkpoints long-running legs: each leg arms its own timer, and a
	// leg that has run this long is preempted at its next step
	// boundary, its snapshot spills to the state dir, and the job
	// immediately resumes — bounding how much work a crash can lose
	// (0 = default 60s; negative disables the periodic spill, leaving
	// only preemption and shutdown spills). Each spill costs one
	// checkpoint gather+restore and increments the job's preemption
	// count. Ignored without StateDir.
	SpillInterval time.Duration
	// ClientBudgetSeconds caps one client's admitted-but-unfinished
	// predicted seconds, so a single client cannot fill the whole
	// admission budget: a deck past the cap is rejected with a typed
	// *QuotaError (HTTP 429 client_over_quota) while other clients'
	// decks still admit (0 = no per-client cap).
	ClientBudgetSeconds float64
}

func (o Options) withDefaults() Options {
	if o.Workers < 1 {
		o.Workers = 2
	}
	if o.Threads < 1 {
		o.Threads = 1
	}
	if o.BudgetSeconds <= 0 {
		o.BudgetSeconds = 600
	}
	if o.MaxDeckBytes <= 0 {
		o.MaxDeckBytes = 1 << 20
	}
	if o.MaxRanks < 1 {
		o.MaxRanks = 8
	}
	if o.MaxThreads < 1 {
		o.MaxThreads = 16
	}
	if o.MaxElements < 1 {
		o.MaxElements = 4 << 20
	}
	if o.MaxTerminalJobs < 1 {
		o.MaxTerminalJobs = 512
	}
	if o.SpillInterval == 0 {
		o.SpillInterval = 60 * time.Second
	}
	return o
}

// DefaultClient is the identity of submissions that carry no X-Client
// header.
const DefaultClient = "anon"

// maxClientLen bounds a client identity; names are printable ASCII so
// they journal and log cleanly.
const maxClientLen = 64

// canonClient validates and canonicalises a client identity: empty
// maps to DefaultClient, anything over maxClientLen bytes or outside
// printable non-space ASCII is a typed 400.
func canonClient(c string) (string, error) {
	if c == "" {
		return DefaultClient, nil
	}
	if len(c) > maxClientLen {
		return "", &BadClientError{Reason: fmt.Sprintf("client name over %d bytes", maxClientLen)}
	}
	for i := 0; i < len(c); i++ {
		if c[i] <= 0x20 || c[i] >= 0x7f {
			return "", &BadClientError{Reason: "client name must be printable ASCII without spaces"}
		}
	}
	return c, nil
}

// Job states, as reported on the wire.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// BadDeckError rejects a submission whose deck cannot be turned into a
// runnable config. The wire layer maps it to 400.
type BadDeckError struct{ Reason string }

func (e *BadDeckError) Error() string { return "bad deck: " + e.Reason }

// BadClientError rejects a submission whose X-Client identity is
// unusable. The wire layer maps it to 400.
type BadClientError struct{ Reason string }

func (e *BadClientError) Error() string { return "bad client: " + e.Reason }

// QuotaError rejects an admissible deck because its client's backlog
// quota has no room — distinct from *OverloadedError so a 429 tells a
// client whether the server is full or it alone is over quota.
// RetryAfter predicts the seconds until this client's backlog has
// drained enough to fit the estimate.
type QuotaError struct {
	Client     string
	RetryAfter int
	EstSeconds float64
	Backlog    float64
	Quota      float64
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("client %q over quota: backlog %.1fs + job %.1fs exceeds quota %.1fs (retry after %ds)",
		e.Client, e.Backlog, e.EstSeconds, e.Quota, e.RetryAfter)
}

// OverloadedError rejects an admissible deck the budget has no room
// for. RetryAfter is the predicted seconds until the backlog has
// drained enough to fit the estimate, given the server drains Workers
// jobs' worth of predicted seconds per wall-clock second.
type OverloadedError struct {
	RetryAfter int
	EstSeconds float64
	Backlog    float64
	Budget     float64
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("overloaded: predicted backlog %.1fs + job %.1fs exceeds budget %.1fs (retry after %ds)",
		e.Backlog, e.EstSeconds, e.Budget, e.RetryAfter)
}

// ErrClosed rejects submissions to a shut-down server.
var ErrClosed = errors.New("serve: server closed")

// Job is one admitted simulation.
type Job struct {
	ID       string
	Priority int
	// Client is the submitting identity (X-Client header, default
	// "anon"): the unit of backlog quotas and fair queue ordering.
	Client string
	// Est is the admission estimate, calibrated by the measured wall
	// clocks of previously completed jobs; modelSecs keeps the raw
	// uncalibrated model seconds so each completion is observed
	// against the model, not against its own calibration.
	Est       machine.Estimate
	modelSecs float64

	seq int
	// fairKey is the job's start-time-fair-queuing virtual finish tag,
	// assigned at admission and kept across preemptions: within a
	// priority band the queue orders by it, interleaving clients
	// instead of serving one client's flood FIFO.
	fairKey float64

	// Everything below is guarded by the server mutex.
	state        string
	cfg          *bookleaf.Config     // nil once terminal
	deckRaw      []byte               // original deck bytes; durable servers journal and compact them
	ctl          *bookleaf.Control    // current leg; nil unless running
	spill        *time.Timer          // the current leg's periodic spill; nil unless armed
	resumeSnap   *checkpoint.Snapshot // snapshot the next leg resumes from
	prevObs      *obs.Snapshot        // merged metrics of finished legs
	lastStatus   bookleaf.RunStatus
	preemptions  int
	wallSeconds  float64 // measured run time summed over finished legs
	preemptAsked bool
	cancelAsked  bool
	// snapFile names the spill of resumeSnap in StateDir, once one is
	// on disk; empty while none is, and once the job ends.
	snapFile string
	// result is what GET serves of a done job, held in memory; a durable
	// server puts it in resFile (in StateDir) instead. obsJSON is the
	// merged obs as the done record journals it, on either kind of
	// server.
	result  *ResultJSON
	resFile string
	obsJSON json.RawMessage
	err     error
	done    chan struct{} // closed at terminal state
}

// Server is the scheduler.
type Server struct {
	opt Options
	cal *machine.Calibrator

	mu       sync.Mutex
	wg       sync.WaitGroup
	jobs     map[string]*Job
	queue    []*Job   // pending, highest priority first, fairKey then FIFO within
	running  int      // jobs in StateRunning; dispatch keeps it <= Workers
	backlog  float64  // predicted seconds of admitted unfinished work
	terminal []string // terminal job IDs, oldest first — retention FIFO
	seq      int
	closed   bool

	// Durability (nil on an in-memory server).
	jl *journal

	// Fairness. clientBacklog mirrors backlog per client for the quota
	// gate; vnow and clientVTime implement start-time fair queuing: vnow
	// is the virtual clock (advanced to the fair tag of each dispatched
	// job), clientVTime[c] the virtual finish tag of client c's last
	// admitted job. A new job's fairKey = max(vnow, clientVTime[c]) +
	// est, so a client's flood lines up serially in virtual time while
	// a fresh client starts at vnow and interleaves.
	clientBacklog map[string]float64
	clientVTime   map[string]float64
	vnow          float64
}

// New builds an in-memory Server. StateDir is ignored; durable servers
// come from Open.
func New(opt Options) *Server {
	opt.StateDir = ""
	s, _ := Open(opt) // cannot fail without a state dir
	return s
}

// Open builds a Server, and — when opt.StateDir is set — makes it
// durable: the directory is created if needed, the journal replayed
// (queued work re-admitted, interrupted jobs set to resume from their
// last spilled snapshot, terminal outcomes and the calibrator's learned
// scale restored), then rewritten compacted. The only errors are
// environmental — an uncreatable directory or unopenable journal;
// journal corruption never fails Open, recovery keeps what parses.
func Open(opt Options) (*Server, error) {
	opt = opt.withDefaults()
	s := &Server{
		opt:           opt,
		cal:           machine.NewCalibrator(),
		jobs:          make(map[string]*Job),
		clientBacklog: make(map[string]float64),
		clientVTime:   make(map[string]float64),
	}
	if opt.StateDir != "" {
		if err := s.recover(); err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.dispatchLocked()
		s.mu.Unlock()
	}
	return s, nil
}

// recover replays the journal in StateDir into the fresh server and
// compacts it. Called once from Open, before any concurrency exists.
func (s *Server) recover() error {
	if err := os.MkdirAll(s.opt.StateDir, 0o755); err != nil {
		return fmt.Errorf("serve: state dir: %w", err)
	}
	st := replayJournal(s.opt.StateDir)
	jl, err := openJournalFile(s.opt.StateDir)
	if err != nil {
		return fmt.Errorf("serve: journal: %w", err)
	}
	s.jl = jl
	if st.calN > 0 {
		s.cal.Restore(st.calScale, st.calN)
	}
	if st.maxSeq > s.seq {
		s.seq = st.maxSeq
	}
	// Terminal jobs first, in their recorded retention order: the status
	// document, error and merged obs survive a restart, and a done job
	// serves its result from the <id>.res file its record names.
	for _, id := range st.terminalOrder {
		rec := st.jobs[id]
		if !terminalOp(rec.Op) || s.jobs[id] != nil {
			continue
		}
		j := &Job{
			ID: rec.ID, Priority: rec.Priority, Client: rec.Client,
			Est: machine.Estimate{Seconds: rec.EstSeconds},
			seq: rec.Seq, state: rec.Op, preemptions: rec.Preemptions,
			lastStatus: bookleaf.RunStatus{Step: rec.Step, Time: rec.Time, TEnd: rec.TEnd},
			done:       make(chan struct{}),
		}
		if rec.Error != "" {
			j.err = errors.New(rec.Error)
		} else if rec.Op == StateCanceled {
			j.err = bookleaf.ErrCanceled
		}
		if rec.Op == StateDone {
			j.obsJSON = rec.Obs
			// Eviction deletes the file, and a tampered record must not
			// name the journal or another job's result.
			if ownFile(rec.ID, resSuffix, rec.Res) {
				j.resFile = rec.Res
			}
		}
		close(j.done)
		s.jobs[id] = j
		s.terminal = append(s.terminal, id)
	}
	s.retainLocked()
	// Live jobs in submission order, so fair tags rebuild the same way
	// they were first assigned.
	for _, id := range st.order {
		if rec := st.jobs[id]; rec.Op == opSubmit && s.jobs[id] == nil {
			s.readmit(rec)
		}
	}
	if err := s.compactJournal(); err != nil {
		return fmt.Errorf("serve: journal compact: %w", err)
	}
	// A .ckpt or .res no job names is an orphan from a crash, an
	// eviction or a compacted-away job; a .tmp is a write a crash cut
	// short.
	named := map[string]bool{}
	for _, j := range s.jobs {
		named[j.snapFile] = true
		named[j.resFile] = true
	}
	ents, _ := os.ReadDir(s.opt.StateDir)
	for _, e := range ents {
		ext := filepath.Ext(e.Name())
		if ext == ".tmp" || (ext == snapSuffix || ext == resSuffix) && !named[e.Name()] {
			os.Remove(filepath.Join(s.opt.StateDir, e.Name()))
		}
	}
	return nil
}

// readmit reconstructs one live (queued or interrupted) job from its
// journal record: the deck is re-admitted exactly like a fresh
// submission — server caps may have changed across the restart, in
// which case the job fails rather than runs oversized — and an
// interrupted job's last spill is loaded so its next leg resumes
// bitwise where it left off. A missing, corrupt or foreign spill
// restarts the job from scratch, dropping the spilled leg bookkeeping
// with it so obs counters are not double-merged.
func (s *Server) readmit(rec *journalRecord) {
	j := &Job{
		ID: rec.ID, Priority: rec.Priority, Client: rec.Client,
		seq: rec.Seq, state: StateQueued,
		deckRaw: rec.Deck,
		done:    make(chan struct{}),
	}
	if j.Client == "" {
		j.Client = DefaultClient
	}
	s.jobs[j.ID] = j
	cfg, err := s.admit(rec.Deck)
	if err != nil {
		s.terminalLocked(j, StateFailed, fmt.Errorf("journaled deck no longer admissible: %w", err))
		return
	}
	j.cfg = &cfg
	j.Est = machine.Estimate{Seconds: rec.EstSeconds}
	j.modelSecs = rec.ModelSeconds
	if !(j.Est.Seconds > 0) || math.IsInf(j.Est.Seconds, 0) {
		// A tampered journal must not poison the backlog accounting.
		j.Est.Seconds = 0
	}
	s.backlog += j.Est.Seconds
	s.clientBacklog[j.Client] += j.Est.Seconds
	s.fairTagLocked(j)
	// Only the name writeSnap gives is trusted: a record naming another
	// job's spill must not resume this job from that job's state.
	if ownFile(rec.ID, snapSuffix, rec.Snap) {
		snap, err := readSnapFile(filepath.Join(s.opt.StateDir, rec.Snap))
		var prev *obs.Snapshot
		if err == nil {
			prev, err = decodeObs(rec.Obs)
		}
		if err == nil && snap.Validate(cfg.Problem, cfg.NX, cfg.NY,
			cfg.NX*cfg.NY, (cfg.NX+1)*(cfg.NY+1)) == nil {
			j.resumeSnap = snap
			j.snapFile = rec.Snap
			j.prevObs = prev
			j.preemptions = rec.Preemptions
			j.wallSeconds = rec.WallSeconds
			j.lastStatus = bookleaf.RunStatus{Step: rec.Step, Time: rec.Time, TEnd: cfg.TEnd}
		}
	}
	if s.opt.AdmitOnly {
		s.terminalLocked(j, StateDone, nil)
		return
	}
	s.pushLocked(j)
}

// compactJournal rewrites the journal as its minimal equivalent — one
// calibration record, one submit (+ optional spill) per live job, one
// self-describing terminal record per retained terminal job — through
// atomicfile.Write, so a crash mid-compaction leaves the old journal
// intact. The append handle is reopened on the new file. Called under
// no concurrency (from recover) or under s.mu.
func (s *Server) compactJournal() error {
	err := atomicfile.Write(filepath.Join(s.opt.StateDir, journalName), func(out io.Writer) error {
		var err error
		write := func(rec *journalRecord) {
			if err == nil {
				err = writeRecord(out, rec)
			}
		}
		if scale, n := s.cal.State(); n > 0 {
			write(&journalRecord{Op: opCalib, Scale: scale, N: n})
		}
		for _, id := range s.terminal {
			if j := s.jobs[id]; j != nil {
				write(terminalRecord(j))
			}
		}
		live := make([]*Job, 0, len(s.jobs))
		for _, j := range s.jobs {
			if j.state == StateQueued || j.state == StateRunning {
				live = append(live, j)
			}
		}
		sort.Slice(live, func(a, b int) bool { return live[a].seq < live[b].seq })
		for _, j := range live {
			write(submitRecord(j))
			if j.resumeSnap == nil || err != nil {
				continue
			}
			// The spilled snapshot itself must exist on disk for the
			// record to mean anything after the next crash; one a spill
			// already wrote is left as it is.
			if j.snapFile == "" {
				name, werr := s.jl.writeSnap(j.ID, j.resumeSnap)
				if err = werr; err != nil {
					continue
				}
				j.snapFile = name
			}
			var rec *journalRecord
			rec, err = spillRecord(j)
			write(rec)
		}
		return err
	})
	if err != nil {
		return err
	}
	s.jl.close()
	jl, err := openJournalFile(s.opt.StateDir)
	if err != nil {
		return err
	}
	s.jl = jl
	return nil
}

// fairTagLocked assigns j its start-time-fair-queuing tag and advances
// the client's virtual time.
func (s *Server) fairTagLocked(j *Job) {
	start := s.vnow
	if v := s.clientVTime[j.Client]; v > start {
		start = v
	}
	j.fairKey = start + j.Est.Seconds
	s.clientVTime[j.Client] = j.fairKey
}

// Submit parses a deck from r, predicts its cost, and either admits it
// into the queue or rejects it with a typed error (*BadDeckError,
// *BadClientError, *OverloadedError, *QuotaError, config.ErrTooLarge
// wrapped, or ErrClosed). client is the submitting identity ("" maps
// to DefaultClient): the unit of backlog quotas and fair ordering.
func (s *Server) Submit(r io.Reader, priority int, client string) (*Job, error) {
	client, err := canonClient(client)
	if err != nil {
		return nil, err
	}
	// Read the raw bytes first — a durable server journals exactly what
	// the client sent — then parse through the same limited path an
	// io.Reader submission always took (one byte over the cap still
	// wraps config.ErrTooLarge).
	raw, err := io.ReadAll(io.LimitReader(r, s.opt.MaxDeckBytes+1))
	if err != nil {
		return nil, &BadDeckError{Reason: err.Error()}
	}
	cfg, err := s.admit(raw)
	if err != nil {
		return nil, err
	}
	// Threads here is the pool width the server grants, never the
	// deck-declared count: a hostile deck must not be able to inflate
	// the predicted platform bandwidth and price itself cheaper. The
	// deck's own parallelism is charged through Ranks instead.
	est := machine.PredictRun(machine.RunShape{
		Problem: cfg.Problem, NX: cfg.NX, NY: cfg.NY,
		TEnd: cfg.TEnd, MaxSteps: cfg.MaxSteps,
		Threads: s.opt.Threads, Ranks: cfg.Ranks,
	})
	if math.IsNaN(est.Seconds) || math.IsInf(est.Seconds, 0) || est.Seconds <= 0 {
		// PredictRun saturates rather than producing this, but a
		// degenerate estimate must never slip under the budget gate.
		return nil, &BadDeckError{Reason: "cost prediction produced a degenerate estimate"}
	}
	modelSecs := est.Seconds
	// Refine the model's absolute scale with what completed jobs
	// actually measured; the calibrator clamps per observation, so the
	// scaled estimate stays finite and positive.
	est = s.cal.Apply(est)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if s.backlog+est.Seconds > s.opt.BudgetSeconds {
		excess := s.backlog + est.Seconds - s.opt.BudgetSeconds
		retry := int(math.Ceil(excess / float64(s.opt.Workers)))
		if retry < 1 {
			retry = 1
		}
		return nil, &OverloadedError{
			RetryAfter: retry, EstSeconds: est.Seconds,
			Backlog: s.backlog, Budget: s.opt.BudgetSeconds,
		}
	}
	if q := s.opt.ClientBudgetSeconds; q > 0 {
		if cb := s.clientBacklog[client]; cb+est.Seconds > q {
			// The quota drains on one worker at worst (the client's jobs
			// may all be queued behind others), so predict pessimistically
			// against a single-slot drain of this client's own backlog.
			excess := cb + est.Seconds - q
			retry := int(math.Ceil(excess))
			if retry < 1 {
				retry = 1
			}
			return nil, &QuotaError{
				Client: client, RetryAfter: retry,
				EstSeconds: est.Seconds, Backlog: cb, Quota: q,
			}
		}
	}
	s.seq++
	j := &Job{
		ID:        fmt.Sprintf("j%06d", s.seq),
		Priority:  priority,
		Client:    client,
		Est:       est,
		modelSecs: modelSecs,
		seq:       s.seq,
		state:     StateQueued,
		cfg:       &cfg,
		deckRaw:   raw,
		done:      make(chan struct{}),
	}
	if s.jl != nil {
		// An unjournalable submission is rejected, not half-admitted: an
		// acknowledged job must survive a crash, and a rejected one
		// charges its client no fair-queue time.
		if err := s.jl.append(submitRecord(j)); err != nil {
			s.seq--
			return nil, fmt.Errorf("serve: journal append: %w", err)
		}
	}
	s.fairTagLocked(j)
	s.jobs[j.ID] = j
	s.backlog += est.Seconds
	s.clientBacklog[client] += est.Seconds
	if s.opt.AdmitOnly {
		s.terminalLocked(j, StateDone, nil)
		return j, nil
	}
	s.pushLocked(j)
	s.dispatchLocked()
	return j, nil
}

// admit turns a deck's raw bytes into the config its job runs:
// parsed through the MaxDeckBytes limit, mapped, checked by serverSafe
// and validated. Submit and readmit share it, so a journaled deck meets
// the rules a fresh one does. A deck past the limit wraps
// config.ErrTooLarge; every other rejection is a *BadDeckError.
func (s *Server) admit(raw []byte) (bookleaf.Config, error) {
	var cfg bookleaf.Config
	deck, err := config.ParseLimit(bytes.NewReader(raw), s.opt.MaxDeckBytes)
	if errors.Is(err, config.ErrTooLarge) {
		return cfg, err
	}
	if err == nil {
		cfg, err = bookleaf.ConfigFromDeck(deck)
	}
	if err == nil {
		err = s.serverSafe(&cfg)
	}
	if err == nil {
		err = cfg.Validate()
	}
	if err != nil {
		return cfg, &BadDeckError{Reason: err.Error()}
	}
	return cfg, nil
}

// serverSafe rejects deck keys that would touch the server's
// filesystem — a remote client must not be able to write checkpoint,
// trace or metrics files, or read arbitrary paths as restart dumps —
// and deck-declared resource demands past the server's caps: ranks
// (at the start, or after a [supervise] repartition) and threads spawn
// goroutines and pools, NX*NY allocates mesh, so an untrusted deck
// gets a typed 400 here before any of that exists.
func (s *Server) serverSafe(cfg *bookleaf.Config) error {
	switch cfg.Problem {
	case "sod", "noh", "sedov", "saltzmann", "waterair", "nohdisc":
	default:
		// Run would also reject this, but at admission it is a typed
		// 400 instead of a failed job.
		return fmt.Errorf("unknown problem %q", cfg.Problem)
	}
	switch {
	case cfg.Checkpoint != "":
		return errors.New("served decks may not set [control] checkpoint (no server-side file output)")
	case cfg.Resume != "":
		return errors.New("served decks may not set [control] resume (no server-side file input)")
	case cfg.Trace != "":
		return errors.New("served decks may not set [obs] trace (no server-side file output)")
	case cfg.Metrics != "":
		return errors.New("served decks may not set [obs] metrics (use GET /v1/jobs/{id}/metrics)")
	}
	if cfg.Ranks > s.opt.MaxRanks {
		return fmt.Errorf("ranks %d exceeds the server cap %d", cfg.Ranks, s.opt.MaxRanks)
	}
	if sc := cfg.Supervise; sc != nil && sc.RepartRanks > s.opt.MaxRanks {
		// An online repartition grows the fleet to repart_ranks.
		return fmt.Errorf("[supervise] repart_ranks %d exceeds the server cap %d", sc.RepartRanks, s.opt.MaxRanks)
	}
	if cfg.Threads > s.opt.MaxThreads {
		return fmt.Errorf("threads %d exceeds the server cap %d", cfg.Threads, s.opt.MaxThreads)
	}
	// Individual caps first so the int64 product cannot overflow.
	if cfg.NX > s.opt.MaxElements || cfg.NY > s.opt.MaxElements ||
		int64(cfg.NX)*int64(cfg.NY) > int64(s.opt.MaxElements) {
		return fmt.Errorf("mesh %dx%d exceeds the server cap of %d elements", cfg.NX, cfg.NY, s.opt.MaxElements)
	}
	return nil
}

// Get returns a job by ID.
func (s *Server) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel requests a job stop. Queued jobs cancel immediately; running
// jobs stop at their next step boundary. Terminal jobs are left alone.
// The second return is false when the ID is unknown.
func (s *Server) Cancel(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	switch j.state {
	case StateQueued:
		s.removeQueuedLocked(j)
		s.terminalLocked(j, StateCanceled, bookleaf.ErrCanceled)
	case StateRunning:
		j.cancelAsked = true
		j.ctl.Cancel()
	}
	return j, true
}

// Done exposes the terminal-state channel for select loops.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status is a point-in-time view of a job, safe to serialise.
type Status struct {
	ID          string  `json:"id"`
	State       string  `json:"state"`
	Priority    int     `json:"priority"`
	Client      string  `json:"client"`
	EstSeconds  float64 `json:"est_seconds"`
	Preemptions int     `json:"preemptions"`
	Step        int     `json:"step"`
	Time        float64 `json:"time"`
	TEnd        float64 `json:"tend"`
	Error       string  `json:"error,omitempty"`
}

// Status snapshots the job under the scheduler lock; live progress
// comes from the running leg's Control.
func (s *Server) Status(j *Job) Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		ID: j.ID, State: j.state, Priority: j.Priority, Client: j.Client,
		EstSeconds: j.Est.Seconds, Preemptions: j.preemptions,
		Step: j.lastStatus.Step, Time: j.lastStatus.Time, TEnd: j.lastStatus.TEnd,
	}
	if j.state == StateRunning && j.ctl != nil {
		if rs, ok := j.ctl.Status(); ok {
			st.Step, st.Time, st.TEnd = rs.Step, rs.Time, rs.TEnd
		}
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// result is what GET serves of a done job — nil before StateDone — or
// the reason its result file could not be read. The file is read
// outside the mutex, and checked whole before any of it is returned.
func (s *Server) result(j *Job) (*ResultJSON, error) {
	s.mu.Lock()
	res, file := j.result, j.resFile
	s.mu.Unlock()
	if file == "" {
		return res, nil
	}
	return readResult(filepath.Join(s.opt.StateDir, file))
}

// Metrics assembles the job's current merged obs snapshot: finished
// legs plus the running leg's latest published snapshot. Nil when
// nothing has been published yet.
func (s *Server) Metrics(j *Job) *obs.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	var parts []*obs.Snapshot
	if j.prevObs != nil {
		parts = append(parts, j.prevObs)
	}
	if j.state == StateRunning && j.ctl != nil {
		if live := j.ctl.Metrics(); live != nil {
			parts = append(parts, live)
		}
	}
	if j.state == StateDone {
		// The final merge already happened at completion.
		sn, _ := decodeObs(j.obsJSON)
		return sn
	}
	if len(parts) == 0 {
		return nil
	}
	// Copy-on-read: callers must never see a snapshot that a later leg
	// merge will mutate.
	return obs.MergeSnapshots(parts...)
}

// Stats is the server-wide view the wire layer exposes on /v1/status.
type Stats struct {
	Workers       int     `json:"workers"`
	FreeWorkers   int     `json:"free_workers"`
	Queued        int     `json:"queued"`
	Running       int     `json:"running"`
	Backlog       float64 `json:"backlog_seconds"`
	BudgetSeconds float64 `json:"budget_seconds"`
	// CalibrationScale is the online cost calibrator's current
	// measured/modelled ratio (1 until a job completes); CalibrationN
	// its observation count.
	CalibrationScale float64 `json:"calibration_scale"`
	CalibrationN     int     `json:"calibration_n"`
	// ClientBacklog is each client's admitted-but-unfinished predicted
	// seconds — the quantity the per-client quota gates on.
	ClientBacklog map[string]float64 `json:"client_backlog,omitempty"`
}

// Stats snapshots the scheduler.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Workers: s.opt.Workers, FreeWorkers: s.opt.Workers - s.running,
		Queued: len(s.queue), Running: s.running,
		Backlog: s.backlog, BudgetSeconds: s.opt.BudgetSeconds,
	}
	st.CalibrationScale, st.CalibrationN = s.cal.State()
	if len(s.clientBacklog) > 0 {
		st.ClientBacklog = make(map[string]float64, len(s.clientBacklog))
		for c, b := range s.clientBacklog {
			st.ClientBacklog[c] = b
		}
	}
	return st
}

// Close stops admissions and waits for every leg to end. An in-memory
// server cancels everything in flight; a durable server parks instead —
// running jobs are preempted and their final snapshots spill to the
// state dir, queued jobs stay journaled — so the next Open resumes all
// of it.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.jl == nil {
		for _, j := range s.queue {
			s.terminalLocked(j, StateCanceled, bookleaf.ErrCanceled)
		}
		s.queue = nil
		for _, j := range s.jobs {
			if j.state == StateRunning {
				j.cancelAsked = true
				j.ctl.Cancel()
			}
		}
	} else {
		for _, j := range s.jobs {
			if j.state == StateRunning && !j.preemptAsked {
				j.preemptAsked = true
				j.ctl.Preempt()
			}
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	if s.jl != nil {
		// One last compaction so the journal on disk is minimal and the
		// parked queue replays without scanning the whole history.
		s.compactJournal()
		s.jl.close()
		s.jl = nil
	}
	s.mu.Unlock()
}

// pushLocked inserts j into the queue: highest priority first, then
// fair tag (start-time fair queuing — clients interleave instead of one
// client's flood running FIFO), then
// admission sequence as the deterministic tiebreak. A preempted job
// keeps its original tag and sequence, so it re-enters ahead of later
// arrivals of the same priority and fair position.
func (s *Server) pushLocked(j *Job) {
	i := sort.Search(len(s.queue), func(i int) bool {
		q := s.queue[i]
		if q.Priority != j.Priority {
			return q.Priority < j.Priority
		}
		if q.fairKey != j.fairKey {
			return q.fairKey > j.fairKey
		}
		return q.seq > j.seq
	})
	s.queue = append(s.queue, nil)
	copy(s.queue[i+1:], s.queue[i:])
	s.queue[i] = j
}

func (s *Server) removeQueuedLocked(j *Job) {
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}

// dispatchLocked starts queued jobs on free worker slots, then — if work is
// still waiting — preempts the weakest running job when the queue head
// strictly outranks it. One preemption request per victim leg; the
// snapshot hand-back re-enters through legDone.
func (s *Server) dispatchLocked() {
	if s.closed {
		// A durable shutdown parks queued work for the next Open; nothing
		// may start once close begins.
		return
	}
	for s.running < s.opt.Workers && len(s.queue) > 0 {
		j := s.queue[0]
		s.queue = s.queue[1:]
		s.startLocked(j)
	}
	if len(s.queue) == 0 {
		return
	}
	head := s.queue[0]
	var victim *Job
	for _, j := range s.jobs {
		if j.state != StateRunning || j.preemptAsked {
			continue
		}
		if victim == nil || j.Priority < victim.Priority ||
			(j.Priority == victim.Priority && j.seq > victim.seq) {
			victim = j
		}
	}
	if victim != nil && victim.Priority < head.Priority {
		victim.preemptAsked = true
		victim.ctl.Preempt()
	}
}

// startLocked takes a worker slot for j, arms the leg's periodic spill
// on a durable server, and launches the leg goroutine.
func (s *Server) startLocked(j *Job) {
	ctl := &bookleaf.Control{}
	s.running++
	j.state = StateRunning
	j.ctl = ctl
	j.preemptAsked = false
	if s.jl != nil && s.opt.SpillInterval > 0 {
		// The spill preempts only the leg that armed it: by the time the
		// timer fires, that leg may have ended and another begun.
		j.spill = time.AfterFunc(s.opt.SpillInterval, func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			if j.ctl == ctl && !j.preemptAsked && !s.closed {
				j.preemptAsked = true
				ctl.Preempt()
			}
		})
	}
	if j.fairKey > s.vnow {
		// Virtual time advances to each dispatched job's finish tag, so a
		// client idle through the flood re-enters at the current front
		// rather than with ancient credit.
		s.vnow = j.fairKey
	}
	cfg := *j.cfg
	cfg.Control = ctl
	cfg.ResumeFrom = j.resumeSnap
	if cfg.Ranks <= 1 {
		cfg.Threads = s.opt.Threads
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t0 := time.Now()
		res, err := bookleaf.Run(cfg)
		wall := time.Since(t0).Seconds()
		var resFile string
		if err == nil && s.opt.StateDir != "" {
			// Written here, outside s.mu, and before the done record that
			// names it. A failed write only costs durability: the fields
			// stay in memory, as a failed spill's snapshot does.
			if name, werr := writeResult(s.opt.StateDir, j.ID, resultJSON(res)); werr == nil {
				resFile = name
			}
		}
		s.legDone(j, res, err, wall, resFile)
	}()
}

// legDone retires a finished leg: its worker slot is released first
// (slots are reclaimed before the terminal state is observable),
// then the outcome routes to completion, requeue-with-snapshot, or a
// terminal error. resFile names the completed run's result file, if
// one was written.
func (s *Server) legDone(j *Job, res *bookleaf.Result, err error, wall float64, resFile string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	if j.spill != nil {
		j.spill.Stop()
		j.spill = nil
	}
	j.ctl = nil
	j.preemptAsked = false
	j.wallSeconds += wall

	var pe *bookleaf.PreemptedError
	switch {
	case err == nil:
		// Only completed jobs calibrate: the legs' summed wall clock is
		// the measured cost of exactly the work the admission estimate
		// priced. Failed and canceled runs stopped at an unknown
		// fraction of it.
		s.cal.Observe(j.modelSecs, j.wallSeconds)
		if j.prevObs != nil && res.Obs != nil {
			j.prevObs.Merge(res.Obs)
			res.Obs = j.prevObs
		}
		// Only what GET serves is retained: not the mesh, the timer
		// tables, history or probes, and nothing mesh-sized when the
		// result is on disk. An obs snapshot JSON cannot carry (a NaN
		// gauge) is dropped: neither the wire nor the journal could
		// serve it.
		j.obsJSON, _ = encodeObs(res.Obs)
		if j.resFile = resFile; resFile == "" {
			j.result = resultJSON(res)
		}
		// TEnd is the deck's configured end time as the run resolved it,
		// not the time reached: a MaxSteps-limited run reports how far
		// short of tend it stopped.
		j.lastStatus = bookleaf.RunStatus{Step: res.Steps, Time: res.Time, TEnd: res.TEnd}
		s.terminalLocked(j, StateDone, nil)
	case errors.As(err, &pe):
		if j.cancelAsked || (s.closed && s.jl == nil) {
			// A cancel raced the preemption — or an in-memory server is
			// shutting down; the snapshot is discarded like any other
			// canceled state. A durable shutdown instead falls through to
			// the spill below: the parked job resumes at the next Open.
			s.terminalLocked(j, StateCanceled, bookleaf.ErrCanceled)
			break
		}
		j.resumeSnap = pe.Snapshot
		if j.prevObs == nil {
			j.prevObs = pe.Obs
		} else {
			j.prevObs.Merge(pe.Obs)
		}
		j.preemptions++
		j.lastStatus = bookleaf.RunStatus{Step: pe.Step, Time: pe.Time, TEnd: j.lastStatus.TEnd}
		j.state = StateQueued
		j.snapFile = ""
		if s.jl != nil {
			// Spill the snapshot and its leg bookkeeping: after a crash
			// the job resumes from here instead of from scratch. A failed
			// spill only costs durability — the in-memory resume still has
			// the snapshot, and compaction tries the file again.
			if rec, err := spillRecord(j); err == nil {
				if rec.Snap, err = s.jl.writeSnap(j.ID, j.resumeSnap); err == nil {
					j.snapFile = rec.Snap
					s.jl.append(rec)
				}
			}
		}
		s.pushLocked(j)
	case errors.Is(err, bookleaf.ErrCanceled):
		s.terminalLocked(j, StateCanceled, err)
	default:
		s.terminalLocked(j, StateFailed, err)
	}
	s.dispatchLocked()
}

// terminalLocked moves j to a terminal state exactly once: the
// admission estimate leaves the backlog, waiters unblock, and the job
// joins the retention FIFO.
func (s *Server) terminalLocked(j *Job, state string, err error) {
	j.state = state
	j.err = err
	s.backlog -= j.Est.Seconds
	if s.backlog < 0 {
		s.backlog = 0
	}
	if s.clientBacklog != nil {
		cb := s.clientBacklog[j.Client] - j.Est.Seconds
		if cb <= 1e-9 {
			delete(s.clientBacklog, j.Client)
		} else {
			s.clientBacklog[j.Client] = cb
		}
	}
	// A terminal job sits in the retention FIFO for up to
	// MaxTerminalJobs more completions; a preempted-then-finished job
	// must not pin its mesh-sized resume snapshot (or the journaled raw
	// deck, or its config) for all that time.
	j.resumeSnap = nil
	j.snapFile = ""
	j.prevObs = nil
	j.cfg = nil
	j.deckRaw = nil
	if s.jl != nil {
		// A done line carries the calibrator's state after the job's
		// observation, so completions need no calib line of their own.
		rec := terminalRecord(j)
		if state == StateDone {
			rec.Scale, rec.N = s.cal.State()
		}
		s.jl.append(rec)
		s.jl.removeSnap(j.ID)
	}
	s.terminal = append(s.terminal, j.ID)
	s.retainLocked()
	// Waiters wake to a state directory the eviction has already swept.
	close(j.done)
}

// retainLocked evicts the oldest terminal jobs past MaxTerminalJobs:
// they leave s.jobs entirely and answer 404, and their result files are
// deleted. Retention bounds how many jobs the daemon holds; the result
// files keep what each one costs in memory small.
func (s *Server) retainLocked() {
	for len(s.terminal) > s.opt.MaxTerminalJobs {
		if j := s.jobs[s.terminal[0]]; j != nil && j.resFile != "" {
			os.Remove(filepath.Join(s.opt.StateDir, j.resFile))
		}
		delete(s.jobs, s.terminal[0])
		s.terminal = s.terminal[1:]
	}
}
