// The durability layer: an append-only job journal plus per-job
// checkpoint spill files and result files inside the server's state
// directory (Options.StateDir). Every admission, spill and terminal
// outcome is one sealed line — the record's JSON, a space, and the
// CRC-32C of the JSON in eight hex digits — fsynced as it is appended:
// a one-leg job writes two, its submit line and its done line, which
// carries the calibrator's state after the job's observation. Each
// preemption's in-memory snapshot (priority eviction, periodic spill of
// a long-running leg, or the final park on graceful shutdown) is
// written next to it as <id>.ckpt in the checkpoint gob format, and a
// done job's served ResultJSON as <id>.res (see writeResult), which its
// done record names beside the merged obs snapshot. A job names the
// files it owns (Job.snapFile, Job.resFile): compaction writes a
// snapshot only for a job that names none, and Open deletes every .ckpt
// and .res no job names. A restarted daemon replays the journal —
// re-admitting queued work, resuming interrupted jobs from their last
// spill through Config.ResumeFrom (bitwise-identical to an
// uninterrupted run, the per-leg obs snapshots merged), restoring
// per-client backlogs, the calibrator's learned scale and the retained
// terminal jobs — then rewrites the journal compacted.
//
// The journal is written under the scheduler mutex, so a mid-write
// crash can tear at most the final line. Replay is correspondingly
// paranoid: a line whose seal fails, that does not parse or that
// references a job that does not exist is skipped, and a record naming
// a file other than <id>.ckpt or <id>.res is not trusted — recovery
// keeps whatever verifies and parses and never fails on a corrupt
// journal (FuzzJournalReplay pins this down). The only errors Open
// surfaces are environmental: an uncreatable state directory or an
// unwritable journal file.
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

	// calib and done: the calibrator's scale and observation count, as
	// compaction found them or after a done job's observation; replay
	// restores the last record with n > 0.
	Scale float64 `json:"scale,omitempty"`
	N     int     `json:"n,omitempty"`
}

// submitRecord is j's admission line: all a restart needs to re-admit
// it, the raw deck included.
func submitRecord(j *Job) *journalRecord {
	return &journalRecord{
		Op: opSubmit, ID: j.ID, Seq: j.seq,
		Priority: j.Priority, Client: j.Client, Deck: j.deckRaw,
		EstSeconds: j.Est.Seconds, ModelSeconds: j.modelSecs,
	}
}

// spillRecord is j's spill line: the snapshot file it names and the
// leg bookkeeping its resumed leg needs. The error is the merged obs
// snapshot's, which JSON may not carry.
func spillRecord(j *Job) (*journalRecord, error) {
	raw, err := encodeObs(j.prevObs)
	return &journalRecord{
		Op: opSpill, ID: j.ID, Snap: j.snapFile,
		Step: j.lastStatus.Step, Time: j.lastStatus.Time,
		Preemptions: j.preemptions, WallSeconds: j.wallSeconds,
		Obs: raw,
	}, err
}

// terminalRecord is j's self-describing terminal journal line: all a
// restart needs to restore the job with no preceding submit record.
func terminalRecord(j *Job) *journalRecord {
	rec := &journalRecord{
		Op: j.state, ID: j.ID, Seq: j.seq, Client: j.Client,
		Priority: j.Priority, EstSeconds: j.Est.Seconds, Preemptions: j.preemptions,
		Step: j.lastStatus.Step, Time: j.lastStatus.Time, TEnd: j.lastStatus.TEnd,
		Res: j.resFile, Obs: j.obsJSON,
	}
	if j.err != nil && j.state == StateFailed {
		rec.Error = j.err.Error()
	}
	return rec
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

// writeSnap spills a snapshot to <id>.ckpt atomically and returns the
// file name: a crash mid-spill leaves the previous spill intact, never
// a torn file.
func (jl *journal) writeSnap(id string, sn *checkpoint.Snapshot) (string, error) {
	name := id + snapSuffix
	return name, atomicfile.Write(filepath.Join(jl.dir, name), sn.Write)
}

func (jl *journal) removeSnap(id string) { os.Remove(filepath.Join(jl.dir, id+snapSuffix)) }

// ownFile reports whether name is the one file of a job's that carries
// suffix: <id><suffix>, in the state directory itself. A journal record
// naming any other file — another job's, or the journal — is not
// trusted.
func ownFile(id, suffix, name string) bool {
	return name == id+suffix && filepath.Base(name) == name
}

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

// writeResult writes what GET serves of a done job to dir/<id>.res
// atomically and returns the file name: its ResultJSON (scalars and the
// seven field arrays) gob-encoded behind the atomicfile checksum
// trailer. readResult checks the checksum before it decodes anything,
// so a truncated, bit-flipped or missing file is an error and never a
// partial result.
func writeResult(dir, id string, res *ResultJSON) (string, error) {
	name := id + resSuffix
	return name, atomicfile.Write(filepath.Join(dir, name), func(out io.Writer) error {
		return atomicfile.WriteSummed(out, func(w io.Writer) error {
			return gob.NewEncoder(w).Encode(res)
		})
	})
}

// readResult loads a result file written by writeResult.
func readResult(path string) (*ResultJSON, error) {
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
	return &r, nil
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

// replayState is everything a journal scan recovers.
type replayState struct {
	// jobs holds each job's latest record: its submit with any later
	// spill folded in, or its terminal record.
	jobs          map[string]*journalRecord
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
	st := &replayState{jobs: map[string]*journalRecord{}}
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
		if rec.N > 0 {
			st.calScale, st.calN = rec.Scale, rec.N
		}
		prev := st.jobs[rec.ID]
		switch {
		case rec.Op == opSubmit:
			if rec.ID == "" || prev != nil {
				st.skipped++ // anonymous or duplicate submission
				continue
			}
			st.jobs[rec.ID] = &rec
			st.order = append(st.order, rec.ID)
		case rec.Op == opSpill:
			if prev == nil || terminalOp(prev.Op) {
				st.skipped++
				continue
			}
			// Later spills supersede earlier ones for the same job.
			prev.Snap, prev.Step, prev.Time = rec.Snap, rec.Step, rec.Time
			prev.Preemptions, prev.WallSeconds, prev.Obs = rec.Preemptions, rec.WallSeconds, rec.Obs
		case terminalOp(rec.Op):
			// The terminal record is self-describing: it supersedes what
			// the submit and spill records said, and a compacted journal
			// carries terminal jobs with no preceding submit.
			if rec.ID == "" || (prev != nil && terminalOp(prev.Op)) {
				st.skipped++ // anonymous or double terminal
				continue
			}
			st.jobs[rec.ID] = &rec
			st.terminalOrder = append(st.terminalOrder, rec.ID)
		case rec.Op == opCalib, rec.Op == "start":
			// Older builds also journaled each leg's start, which replay
			// never needed: a started job replays as queued.
		default:
			st.skipped++
		}
	}
	// A scan error (torn final line past the buffer, I/O fault) stops
	// the replay at the last good line; that prefix is what we keep.
	return st
}
