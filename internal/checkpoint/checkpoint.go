// Package checkpoint serialises and restores the evolving hydrodynamic
// state — the mini-app's restart-dump facility (the reference
// implementation writes Silo dumps; this one uses encoding/gob, which
// keeps the repository dependency-free).
//
// Snapshots are partition-independent: all fields are stored
// in global mesh order, so a run checkpointed at N ranks can resume at
// any other rank count with any partitioner. Each rank Gathers its
// owned entities into the global arrays through the mesh's
// GlobalEl/GlobalNd maps; Restore restricts the global arrays back onto
// an arbitrary local (owned + ghost) sub-mesh. A Snapshot captures
// everything a Lagrangian run needs to continue bit-for-bit:
// coordinates, velocities, thermodynamic state, the (remap-mutable)
// mass distribution, the simulation clock and the audit accumulators.
// A dump is the gob-encoded Snapshot behind the atomicfile CRC-32C
// trailer, so a damaged dump fails to Read instead of resuming a
// different state.
package checkpoint

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"bookleaf/internal/atomicfile"
	"bookleaf/internal/hydro"
)

// FormatVersion identifies the snapshot layout: the fields as an
// ordered list keyed by hydro's field-table names, the NEl/NNd size
// fields and a checksum trailer. Dumps of any other version are
// rejected.
const FormatVersion = 4

// ErrVersion is matched (via errors.Is) by errors reporting a snapshot
// whose format version this build cannot read.
var ErrVersion = errors.New("checkpoint: unsupported snapshot format version")

// Snapshot is a serialisable restart dump in global mesh order.
type Snapshot struct {
	Version int

	// Identity of the run: problem name, mesh resolution and global
	// mesh sizes. Restore refuses mismatched targets.
	Problem  string
	NX, NY   int
	NEl, NNd int

	// Clock and audits. ExternalWork and FloorEnergy are the global
	// (rank-summed) accumulators.
	hydro.Clock

	// Fields are hydro.DumpFields, in that order: node rows indexed by
	// global node id, element rows by global element id, corner k of
	// global element e at 4*e+k. A slice, not a map, so that the gob
	// stream has one byte order.
	Fields []Field
}

// Field is one dumped row of the state, in global order.
type Field struct {
	Name string
	Data []float64
}

// New allocates an empty snapshot sized for the global mesh.
func New(problem string, nx, ny, nel, nnd int) *Snapshot {
	sn := &Snapshot{Version: FormatVersion, Problem: problem, NX: nx, NY: ny, NEl: nel, NNd: nnd}
	for _, f := range hydro.DumpFields(nel, nnd) {
		sn.Fields = append(sn.Fields, Field{Name: f.Name, Data: make([]float64, f.Len)})
	}
	return sn
}

// Field returns the dumped row name, or nil.
func (sn *Snapshot) Field(name string) []float64 {
	for _, f := range sn.Fields {
		if f.Name == name {
			return f.Data
		}
	}
	return nil
}

// Gather writes the owned entities of s into their global slots. On a
// partitioned run every rank Gathers into a shared snapshot (the owned
// slots are disjoint); a serial state fills the whole snapshot.
func (sn *Snapshot) Gather(s *hydro.State) error {
	for _, f := range sn.Fields {
		if err := s.ScatterOwned(f.Name, f.Data); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	return nil
}

// Capture builds a complete snapshot from a serial (global-mesh) state.
func Capture(s *hydro.State, problem string, nx, ny int) *Snapshot {
	sn := New(problem, nx, ny, s.Mesh.NEl, s.Mesh.NNd)
	// A serial state owns every entity, so Gather cannot fail.
	if err := sn.Gather(s); err != nil {
		panic(err)
	}
	sn.Clock = s.Clock
	return sn
}

// check is the one version and identity check: the format version
// first (a mismatch matches ErrVersion), then, for a consumer that
// names its run — every one but Read — the problem and resolution.
func (sn *Snapshot) check(problem string, nx, ny int) error {
	if sn.Version != FormatVersion {
		return fmt.Errorf("%w: snapshot is version %d, this build reads version %d",
			ErrVersion, sn.Version, FormatVersion)
	}
	if problem != "" && (sn.Problem != problem || sn.NX != nx || sn.NY != ny) {
		return fmt.Errorf("checkpoint: snapshot is %s %dx%d, run is %s %dx%d",
			sn.Problem, sn.NX, sn.NY, problem, nx, ny)
	}
	return nil
}

// checkFields holds the fields to hydro's table: the same names in the
// same order, each sized for the declared mesh.
func (sn *Snapshot) checkFields() error {
	want := hydro.DumpFields(sn.NEl, sn.NNd)
	ok := len(sn.Fields) == len(want)
	for i := 0; ok && i < len(want); i++ {
		ok = sn.Fields[i].Name == want[i].Name && len(sn.Fields[i].Data) == want[i].Len
	}
	if !ok {
		return fmt.Errorf("checkpoint: snapshot fields do not match the state's field table at the declared mesh (%d elements, %d nodes) — truncated or corrupted dump?",
			sn.NEl, sn.NNd)
	}
	return nil
}

// Validate checks the snapshot against the identity and global sizes of
// the run about to consume it; drivers call it before any ranks spawn.
func (sn *Snapshot) Validate(problem string, nx, ny, nel, nnd int) error {
	if err := sn.check(problem, nx, ny); err != nil {
		return err
	}
	if sn.NEl != nel || sn.NNd != nnd {
		return fmt.Errorf("checkpoint: snapshot mesh has %d elements / %d nodes, run has %d / %d",
			sn.NEl, sn.NNd, nel, nnd)
	}
	return sn.checkFields()
}

// Restore loads the snapshot into s, restricting the global fields to
// s's local entities — owned and ghost alike, so no post-restore halo
// refresh is needed (ghosts receive exactly the owner's values). s may
// live on the global mesh (serial) or on any sub-mesh of the same
// global problem, regardless of the rank count or partitioner that
// wrote the snapshot.
func (sn *Snapshot) Restore(s *hydro.State, problem string, nx, ny int) error {
	if err := sn.check(problem, nx, ny); err != nil {
		return err
	}
	if err := sn.checkFields(); err != nil {
		return err
	}
	m := s.Mesh
	if m.GlobalEl == nil && (m.NEl != sn.NEl || m.NNd != sn.NNd) {
		return fmt.Errorf("checkpoint: field sizes do not match the state (nodes %d vs %d, elements %d vs %d)",
			sn.NNd, m.NNd, sn.NEl, m.NEl)
	}
	for _, f := range sn.Fields {
		if err := s.Restrict(f.Name, f.Data); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	s.Clock = sn.Clock
	return nil
}

// Write encodes the snapshot to w, checksum trailer last.
func (sn *Snapshot) Write(w io.Writer) error {
	err := atomicfile.WriteSummed(w, func(w io.Writer) error { return gob.NewEncoder(w).Encode(sn) })
	if err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	return nil
}

// Read decodes a snapshot from r. A short, garbled or bit-flipped dump
// returns an error; a snapshot from another format version returns an
// error matching ErrVersion. The version is read before the trailer is
// checked, so a dump from before the trailer reads as a version error.
func Read(r io.Reader) (*Snapshot, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var sn Snapshot
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&sn); err != nil {
		return nil, fmt.Errorf("checkpoint: decode (truncated or corrupted dump?): %w", err)
	}
	if err := sn.check("", 0, 0); err != nil {
		return nil, err
	}
	if _, err := atomicfile.Summed(b); err != nil {
		return nil, fmt.Errorf("checkpoint: %w (truncated or corrupted dump?)", err)
	}
	return &sn, nil
}
