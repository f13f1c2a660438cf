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

// FormatVersion identifies the snapshot layout: the global layout with
// the NEl/NNd size fields and a checksum trailer. Dumps of any other
// version are rejected.
const FormatVersion = 3

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
	Time, DtPrev              float64
	StepCount                 int
	ExternalWork, FloorEnergy float64

	// Node fields, indexed by global node id.
	X, Y, U, V, NdMass []float64
	// Element fields, indexed by global element id.
	Rho, Ein, P, Q, Csq, Vol, Mass []float64
	// Corner masses, corner k of global element e at 4*e+k.
	CMass []float64
}

// New allocates an empty snapshot sized for the global mesh.
func New(problem string, nx, ny, nel, nnd int) *Snapshot {
	return &Snapshot{
		Version: FormatVersion,
		Problem: problem, NX: nx, NY: ny, NEl: nel, NNd: nnd,
		X: make([]float64, nnd), Y: make([]float64, nnd),
		U: make([]float64, nnd), V: make([]float64, nnd),
		NdMass: make([]float64, nnd),
		Rho:    make([]float64, nel), Ein: make([]float64, nel),
		P: make([]float64, nel), Q: make([]float64, nel),
		Csq: make([]float64, nel), Vol: make([]float64, nel),
		Mass: make([]float64, nel), CMass: make([]float64, 4*nel),
	}
}

// Gather writes the owned entities of s into their global slots. On a
// partitioned run every rank Gathers into a shared snapshot (the owned
// slots are disjoint); a serial state fills the whole snapshot.
func (sn *Snapshot) Gather(s *hydro.State) error {
	m := s.Mesh
	cs := s.CornerStride()
	for i := 0; i < m.NOwnEl; i++ {
		ge := m.GlobalElID(i)
		if ge < 0 || ge >= sn.NEl {
			return fmt.Errorf("checkpoint: local element %d maps to global %d outside [0,%d)", i, ge, sn.NEl)
		}
		sn.Rho[ge] = s.Rho[i]
		sn.Ein[ge] = s.Ein[i]
		sn.P[ge] = s.P[i]
		sn.Q[ge] = s.Q[i]
		sn.Csq[ge] = s.Csq[i]
		sn.Vol[ge] = s.Vol[i]
		sn.Mass[ge] = s.Mass[i]
		// The snapshot keeps the dense stride-4 corner format, not the
		// in-memory corner stride.
		for k := 0; k < 4; k++ {
			sn.CMass[4*ge+k] = s.CMass[cs*i+k]
		}
	}
	for i := 0; i < m.NOwnNd; i++ {
		gn := m.GlobalNdID(i)
		if gn < 0 || gn >= sn.NNd {
			return fmt.Errorf("checkpoint: local node %d maps to global %d outside [0,%d)", i, gn, sn.NNd)
		}
		sn.X[gn] = s.X[i]
		sn.Y[gn] = s.Y[i]
		sn.U[gn] = s.U[i]
		sn.V[gn] = s.V[i]
		sn.NdMass[gn] = s.NdMass[i]
	}
	return nil
}

// SetClock records the simulation clock and the global audit
// accumulators (rank-summed on parallel runs).
func (sn *Snapshot) SetClock(time, dtPrev float64, step int, work, floor float64) {
	sn.Time = time
	sn.DtPrev = dtPrev
	sn.StepCount = step
	sn.ExternalWork = work
	sn.FloorEnergy = floor
}

// Capture builds a complete snapshot from a serial (global-mesh) state.
func Capture(s *hydro.State, problem string, nx, ny int) *Snapshot {
	sn := New(problem, nx, ny, s.Mesh.NEl, s.Mesh.NNd)
	// A serial state owns every entity, so Gather cannot fail.
	if err := sn.Gather(s); err != nil {
		panic(err)
	}
	sn.SetClock(s.Time, s.DtPrev, s.StepCount, s.ExternalWork, s.FloorEnergy)
	return sn
}

// Validate checks the snapshot against the identity and global sizes of
// the run about to consume it; drivers call it before any ranks spawn.
func (sn *Snapshot) Validate(problem string, nx, ny, nel, nnd int) error {
	if sn.Version != FormatVersion {
		return fmt.Errorf("%w: snapshot is version %d, this build reads version %d",
			ErrVersion, sn.Version, FormatVersion)
	}
	if sn.Problem != problem || sn.NX != nx || sn.NY != ny {
		return fmt.Errorf("checkpoint: snapshot is %s %dx%d, run is %s %dx%d",
			sn.Problem, sn.NX, sn.NY, problem, nx, ny)
	}
	if sn.NEl != nel || sn.NNd != nnd {
		return fmt.Errorf("checkpoint: snapshot mesh has %d elements / %d nodes, run has %d / %d",
			sn.NEl, sn.NNd, nel, nnd)
	}
	if len(sn.Rho) != sn.NEl || len(sn.X) != sn.NNd || len(sn.CMass) != 4*sn.NEl {
		return fmt.Errorf("checkpoint: snapshot field sizes inconsistent with declared mesh (%d elements, %d nodes) — truncated or corrupted dump?",
			sn.NEl, sn.NNd)
	}
	return nil
}

// Restore loads the snapshot into s, restricting the global fields to
// s's local entities — owned and ghost alike, so no post-restore halo
// refresh is needed (ghosts receive exactly the owner's values). s may
// live on the global mesh (serial) or on any sub-mesh of the same
// global problem, regardless of the rank count or partitioner that
// wrote the snapshot.
func (sn *Snapshot) Restore(s *hydro.State, problem string, nx, ny int) error {
	if sn.Version != FormatVersion {
		return fmt.Errorf("%w: snapshot is version %d, this build reads version %d",
			ErrVersion, sn.Version, FormatVersion)
	}
	if sn.Problem != problem || sn.NX != nx || sn.NY != ny {
		return fmt.Errorf("checkpoint: snapshot is %s %dx%d, run is %s %dx%d",
			sn.Problem, sn.NX, sn.NY, problem, nx, ny)
	}
	m := s.Mesh
	cs := s.CornerStride()
	if m.GlobalEl == nil && (m.NEl != sn.NEl || m.NNd != sn.NNd) {
		return fmt.Errorf("checkpoint: field sizes do not match the state (nodes %d vs %d, elements %d vs %d)",
			sn.NNd, m.NNd, sn.NEl, m.NEl)
	}
	for i := 0; i < m.NEl; i++ {
		ge := m.GlobalElID(i)
		if ge < 0 || ge >= sn.NEl {
			return fmt.Errorf("checkpoint: local element %d maps to global %d outside [0,%d)", i, ge, sn.NEl)
		}
		s.Rho[i] = sn.Rho[ge]
		s.Ein[i] = sn.Ein[ge]
		s.P[i] = sn.P[ge]
		s.Q[i] = sn.Q[ge]
		s.Csq[i] = sn.Csq[ge]
		s.Vol[i] = sn.Vol[ge]
		s.Mass[i] = sn.Mass[ge]
		for k := 0; k < 4; k++ {
			s.CMass[cs*i+k] = sn.CMass[4*ge+k]
		}
	}
	for i := 0; i < m.NNd; i++ {
		gn := m.GlobalNdID(i)
		if gn < 0 || gn >= sn.NNd {
			return fmt.Errorf("checkpoint: local node %d maps to global %d outside [0,%d)", i, gn, sn.NNd)
		}
		s.X[i] = sn.X[gn]
		s.Y[i] = sn.Y[gn]
		s.U[i] = sn.U[gn]
		s.V[i] = sn.V[gn]
		s.NdMass[i] = sn.NdMass[gn]
	}
	s.Time = sn.Time
	s.DtPrev = sn.DtPrev
	s.StepCount = sn.StepCount
	s.ExternalWork = sn.ExternalWork
	s.FloorEnergy = sn.FloorEnergy
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
	if sn.Version != FormatVersion {
		return nil, fmt.Errorf("%w: snapshot is version %d, this build reads version %d",
			ErrVersion, sn.Version, FormatVersion)
	}
	if _, err := atomicfile.Summed(b); err != nil {
		return nil, fmt.Errorf("checkpoint: %w (truncated or corrupted dump?)", err)
	}
	return &sn, nil
}
