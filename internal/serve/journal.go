// The durability layer: an append-only job journal plus
// per-job checkpoint spill files and result files inside the
// server's state directory (Options.StateDir). Every admission, state
// transition and terminal outcome is one sealed line — the record's
// JSON, a space, and the CRC-32C of the JSON in eight hex digits —
// fsynced as it is appended; each preemption's in-memory snapshot
// (priority eviction, periodic spill of a long-running leg, or the
// final park on graceful shutdown) is written next to it as <id>.ckpt
// in the existing partition/order-independent checkpoint gob format. A done job's
// served result — the ResultJSON scalars and seven field arrays — is
// written as <id>.res (see writeResult), and its terminal record names
// the file and carries the merged obs snapshot, so a done job holds
// only its status and obs in memory. A restarted daemon replays the
// journal — re-admitting queued work, resuming interrupted jobs from
// their last spilled snapshot through Config.ResumeFrom
// (bitwise-identical to an uninterrupted run, the per-leg obs
// snapshots merged), restoring per-client backlogs, the calibrator's
// learned scale and the retained terminal jobs with their result
// files — then rewrites the journal compacted so it does not grow
// across restarts.
//
// The journal is written under the scheduler mutex, so a mid-write
// crash can tear at most the final line. Replay is correspondingly
// paranoid: any line whose seal fails or that does not parse, or that
// references a job or snapshot that does not exist, is skipped —
// recovery keeps whatever verifies and parses and never fails on a
// corrupt journal (FuzzJournalReplay pins this down). The only errors Open surfaces are environmental: an
// uncreatable state directory or an unwritable journal file.
package serve

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"bookleaf"
	"bookleaf/internal/atomicfile"
	"bookleaf/internal/checkpoint"
	"bookleaf/internal/obs"
)

// journalName is the job log inside the state directory.
const journalName = "journal.ndjson"

// snapSuffix names the per-job checkpoint spill files (<id>.ckpt).
const snapSuffix = ".ckpt"

// resSuffix names the per-job result files of done jobs (<id>.res).
const resSuffix = ".res"

// Journal operations. Terminal records use the job-state strings
// (StateDone / StateFailed / StateCanceled) directly as their op, so a
// terminal line is self-describing without a second field.
const (
	opSubmit = "submit"
	opStart  = "start"
	opSpill  = "spill"
	opCalib  = "calib"
)

func terminalOp(op string) bool {
	return op == StateDone || op == StateFailed || op == StateCanceled
}

// journalRecord is one line of the job journal. A single
// struct covers every op; irrelevant fields stay at their zero value
// and are omitted on the wire.
type journalRecord struct {
	Op string `json:"op"`
	ID string `json:"id,omitempty"`

	// submit: the admission facts needed to re-admit the job —
	// including the raw deck bytes, so a restarted server re-parses
	// exactly what the client sent (base64 in the JSON).
	Seq          int     `json:"seq,omitempty"`
	Priority     int     `json:"priority,omitempty"`
	Client       string  `json:"client,omitempty"`
	Deck         []byte  `json:"deck,omitempty"`
	EstSeconds   float64 `json:"est_seconds,omitempty"`
	ModelSeconds float64 `json:"model_seconds,omitempty"`

	// spill: the snapshot file (relative to the state dir) and the
	// leg bookkeeping a resumed job needs — the preemption point, the
	// merged finished-leg obs snapshot (an obs.Snapshot, decoded where
	// it is used), and the measured wall seconds the calibrator will be
	// fed at completion.
	Snap        string          `json:"snap,omitempty"`
	Step        int             `json:"step,omitempty"`
	Time        float64         `json:"time,omitempty"`
	Preemptions int             `json:"preemptions,omitempty"`
	WallSeconds float64         `json:"wall_seconds,omitempty"`
	Obs         json.RawMessage `json:"obs,omitempty"`

	// terminal: everything the job's status document shows (seq,
	// priority, client, estimate, preemptions, step, time and TEnd), the
	// failure message (empty for done/canceled-by-user) and, for a done
	// job, its result file and merged obs snapshot.
	TEnd  float64 `json:"tend,omitempty"`
	Res   string  `json:"res,omitempty"`
	Error string  `json:"error,omitempty"`

	// calib: the calibrator's scale and observation count after an
	// Observe; replay restores the last record seen.
	Scale float64 `json:"scale,omitempty"`
	N     int     `json:"n,omitempty"`
}

// journal is the open append handle. All writes happen under the
// server mutex; every append is fsynced so an acknowledged submission
// survives a crash.
type journal struct {
	dir string
	f   *os.File
}

func openJournalFile(dir string) (*journal, error) {
	f, err := os.OpenFile(filepath.Join(dir, journalName),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &journal{dir: dir, f: f}, nil
}

func (jl *journal) append(rec *journalRecord) error {
	if err := writeRecord(jl.f, rec); err != nil {
		return err
	}
	return jl.f.Sync()
}

// writeRecord writes rec as one sealed journal line; it is the one
// writer of journal lines, appends and compaction alike.
func writeRecord(w io.Writer, rec *journalRecord) error {
	b, err := json.Marshal(rec)
	if err == nil {
		_, err = w.Write(seal(b))
	}
	return err
}

// seal appends to a record's JSON a space, its CRC-32C in eight hex
// digits, and the newline that ends the line.
func seal(b []byte) []byte {
	return fmt.Appendf(b, " %08x\n", atomicfile.Sum(b))
}

// unseal returns the JSON of a sealed line (without its newline), and
// false when the line carries no seal or the seal does not match.
func unseal(line []byte) ([]byte, bool) {
	n := len(line) - 9
	if n < 0 || line[n] != ' ' {
		return nil, false
	}
	sum, err := strconv.ParseUint(string(line[n+1:]), 16, 32)
	return line[:n], err == nil && uint32(sum) == atomicfile.Sum(line[:n])
}

func (jl *journal) close() {
	if jl.f != nil {
		jl.f.Close()
		jl.f = nil
	}
}

func (jl *journal) snapName(id string) string { return id + snapSuffix }

func (jl *journal) snapPath(id string) string {
	return filepath.Join(jl.dir, jl.snapName(id))
}

// writeSnap spills a snapshot atomically: a crash mid-spill leaves the
// previous spill intact, never a torn file.
func (jl *journal) writeSnap(id string, sn *checkpoint.Snapshot) (string, error) {
	name := jl.snapName(id)
	return name, atomicfile.Write(jl.snapPath(id), sn.Write)
}

func (jl *journal) removeSnap(id string) { os.Remove(jl.snapPath(id)) }

// readSnapFile loads one spill; callers treat any error as "no spill"
// and restart the job from scratch.
func readSnapFile(path string) (*checkpoint.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return checkpoint.Read(f)
}

// errResCorrupt is every content failure of a result file.
var errResCorrupt = errors.New("result file corrupt")

// writeResult writes what GET serves of res to dir/<id>.res atomically
// and returns the file name: its ResultJSON (scalars and the seven
// field arrays) gob-encoded behind the atomicfile checksum trailer.
// readResult checks the checksum before it decodes anything, so a
// truncated, bit-flipped or missing file is an error and never a
// partial result.
func writeResult(dir, id string, res *bookleaf.Result) (string, error) {
	name := id + resSuffix
	return name, atomicfile.Write(filepath.Join(dir, name), func(out io.Writer) error {
		return atomicfile.WriteSummed(out, func(w io.Writer) error {
			return gob.NewEncoder(w).Encode(resultJSON(res))
		})
	})
}

// readResult loads a result file written by writeResult: the served
// scalars and fields, nothing else.
func readResult(path string) (*bookleaf.Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if b, err = atomicfile.Summed(b); err != nil {
		return nil, errResCorrupt
	}
	var r ResultJSON
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&r); err != nil {
		return nil, errResCorrupt
	}
	return r.result(), nil
}

// encodeObs is an obs snapshot as the journal carries it, and as a done
// job on a durable server keeps it: a few hundred bytes, where the
// decoded maps take several times that.
func encodeObs(sn *obs.Snapshot) (json.RawMessage, error) {
	if sn == nil {
		return nil, nil
	}
	return json.Marshal(sn)
}

// decodeObs is encodeObs's inverse. It re-materialises the snapshot
// through a merge, so a record with absent maps cannot leave nil ones
// for a later Merge to write into.
func decodeObs(raw json.RawMessage) (*obs.Snapshot, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	var sn obs.Snapshot
	if err := json.Unmarshal(raw, &sn); err != nil {
		return nil, err
	}
	return obs.MergeSnapshots(&sn), nil
}

// replayJob is the reconstruction of one job from the journal.
type replayJob struct {
	id       string
	seq      int
	priority int
	client   string
	deck     []byte
	est      float64
	model    float64

	terminal string // "", or the terminal state op
	errMsg   string
	tend     float64
	resFile  string

	snapFile    string
	step        int
	time        float64
	preemptions int
	wall        float64
	obs         json.RawMessage
}

// replayState is everything a journal scan recovers.
type replayState struct {
	jobs          map[string]*replayJob
	order         []string // first-seen (submission) order
	terminalOrder []string // terminal-record order — the retention FIFO
	calScale      float64
	calN          int
	maxSeq        int
	skipped       int // lines dropped: unsealed, unparseable or inconsistent
}

// journalScanBuf bounds one journal line: the largest legitimate line
// is a submit record carrying a MaxDeckBytes deck (1 MiB default)
// base64-expanded, so 16 MiB is generous. A longer line stops the
// scan; everything before it is kept.
const journalScanBuf = 16 << 20

// replayJournal scans the journal and reduces it to per-job state.
// It never fails: a missing journal is an empty one, and corrupt or
// inconsistent lines are counted and skipped. A line whose seal fails
// is corrupt however well it parses: a flipped digit in a deck or an
// estimate must not re-admit a different job.
func replayJournal(dir string) *replayState {
	st := &replayState{jobs: map[string]*replayJob{}}
	f, err := os.Open(filepath.Join(dir, journalName))
	if err != nil {
		return st
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), journalScanBuf)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		body, ok := unseal(line)
		var rec journalRecord
		if !ok || json.Unmarshal(body, &rec) != nil {
			st.skipped++
			continue
		}
		if rec.Seq > st.maxSeq {
			st.maxSeq = rec.Seq
		}
		switch {
		case rec.Op == opSubmit:
			if rec.ID == "" || st.jobs[rec.ID] != nil {
				st.skipped++ // anonymous or duplicate submission
				continue
			}
			st.jobs[rec.ID] = &replayJob{
				id: rec.ID, seq: rec.Seq, priority: rec.Priority,
				client: rec.Client, deck: rec.Deck,
				est: rec.EstSeconds, model: rec.ModelSeconds,
			}
			st.order = append(st.order, rec.ID)
		case rec.Op == opStart:
			if st.jobs[rec.ID] == nil {
				st.skipped++
			}
			// A start without a later spill or terminal record replays
			// the same as queued: the job re-runs from scratch.
		case rec.Op == opSpill:
			rj := st.jobs[rec.ID]
			if rj == nil || rj.terminal != "" {
				st.skipped++
				continue
			}
			// Later spills supersede earlier ones for the same job.
			rj.snapFile = rec.Snap
			rj.step, rj.time = rec.Step, rec.Time
			rj.preemptions, rj.wall = rec.Preemptions, rec.WallSeconds
			rj.obs = rec.Obs
		case terminalOp(rec.Op):
			rj := st.jobs[rec.ID]
			if rj == nil {
				if rec.ID == "" {
					st.skipped++
					continue
				}
				// A compacted journal carries terminal jobs as a single
				// self-describing record with no preceding submit.
				rj = &replayJob{id: rec.ID, seq: rec.Seq, client: rec.Client}
				st.jobs[rec.ID] = rj
			}
			if rj.terminal != "" {
				st.skipped++ // double terminal
				continue
			}
			// The terminal record is self-describing: it supersedes what
			// the submit and spill records said.
			rj.terminal = rec.Op
			rj.errMsg = rec.Error
			rj.priority, rj.est = rec.Priority, rec.EstSeconds
			rj.step, rj.time, rj.tend = rec.Step, rec.Time, rec.TEnd
			rj.preemptions, rj.obs, rj.resFile = rec.Preemptions, rec.Obs, rec.Res
			st.terminalOrder = append(st.terminalOrder, rec.ID)
		case rec.Op == opCalib:
			st.calScale, st.calN = rec.Scale, rec.N
		default:
			st.skipped++
		}
	}
	// A scan error (torn final line past the buffer, I/O fault) stops
	// the replay at the last good line; that prefix is what we keep.
	return st
}
