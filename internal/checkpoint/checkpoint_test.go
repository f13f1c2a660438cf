package checkpoint

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"

	"bookleaf/internal/hydro"
	"bookleaf/internal/partition"
	"bookleaf/internal/setup"
)

func TestRoundTrip(t *testing.T) {
	p, err := setup.Sod(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.NewState()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := s.Step(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	snap := Capture(s, "sod", 32, 2)

	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}

	s2, err := p.NewState()
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Restore(s2, "sod", 32, 2); err != nil {
		t.Fatal(err)
	}
	if s2.Time != s.Time || s2.StepCount != s.StepCount || s2.DtPrev != s.DtPrev {
		t.Fatalf("clock mismatch after restore: %v/%d vs %v/%d", s2.Time, s2.StepCount, s.Time, s.StepCount)
	}
	for e := range s.Rho {
		if s2.Rho[e] != s.Rho[e] || s2.Ein[e] != s.Ein[e] {
			t.Fatalf("element %d state mismatch", e)
		}
	}
	for n := range s.U {
		if s2.U[n] != s.U[n] || s2.X[n] != s.X[n] {
			t.Fatalf("node %d state mismatch", n)
		}
	}
}

func TestResumeBitwiseIdentical(t *testing.T) {
	p1, _ := setup.Sod(48, 2)
	continuous, _ := p1.NewState()
	for i := 0; i < 60; i++ {
		if _, err := continuous.Step(nil, nil); err != nil {
			t.Fatal(err)
		}
	}

	p2, _ := setup.Sod(48, 2)
	first, _ := p2.NewState()
	for i := 0; i < 25; i++ {
		if _, err := first.Step(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := Capture(first, "sod", 48, 2).Write(&buf); err != nil {
		t.Fatal(err)
	}

	p3, _ := setup.Sod(48, 2)
	resumed, _ := p3.NewState()
	snap, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Restore(resumed, "sod", 48, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 35; i++ {
		if _, err := resumed.Step(nil, nil); err != nil {
			t.Fatal(err)
		}
	}

	if resumed.Time != continuous.Time || resumed.StepCount != continuous.StepCount {
		t.Fatalf("clock diverged: %v/%d vs %v/%d", resumed.Time, resumed.StepCount, continuous.Time, continuous.StepCount)
	}
	for e := range continuous.Rho {
		if resumed.Rho[e] != continuous.Rho[e] {
			t.Fatalf("resume not bitwise identical at element %d: %v vs %v", e, resumed.Rho[e], continuous.Rho[e])
		}
	}
	for n := range continuous.U {
		if resumed.U[n] != continuous.U[n] || resumed.X[n] != continuous.X[n] {
			t.Fatalf("resume not bitwise identical at node %d", n)
		}
	}
}

func TestRestoreRejectsMismatch(t *testing.T) {
	p, _ := setup.Sod(16, 2)
	s, _ := p.NewState()
	snap := Capture(s, "sod", 16, 2)
	if err := snap.Restore(s, "noh", 16, 2); err == nil {
		t.Fatal("problem mismatch accepted")
	}
	if err := snap.Restore(s, "sod", 20, 2); err == nil {
		t.Fatal("resolution mismatch accepted")
	}
	snap.Version = 99
	if err := snap.Restore(s, "sod", 16, 2); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestReadGarbageFails(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestReadRejectsWrongVersion(t *testing.T) {
	p, _ := setup.Sod(8, 2)
	s, _ := p.NewState()
	snap := Capture(s, "sod", 8, 2)
	snap.Version = 1
	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := Read(&buf)
	if err == nil {
		t.Fatal("version-1 snapshot accepted")
	}
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("error %v does not match ErrVersion", err)
	}
}

func TestReadTruncatedFails(t *testing.T) {
	p, _ := setup.Sod(16, 2)
	s, _ := p.NewState()
	var buf bytes.Buffer
	if err := Capture(s, "sod", 16, 2).Write(&buf); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()/2]
	if _, err := Read(bytes.NewReader(cut)); err == nil {
		t.Fatal("truncated snapshot decoded")
	}
}

func TestValidateChecksIdentityAndSizes(t *testing.T) {
	p, _ := setup.Sod(16, 2)
	s, _ := p.NewState()
	snap := Capture(s, "sod", 16, 2)
	if err := snap.Validate("sod", 16, 2, p.Mesh.NEl, p.Mesh.NNd); err != nil {
		t.Fatal(err)
	}
	if err := snap.Validate("noh", 16, 2, p.Mesh.NEl, p.Mesh.NNd); err == nil {
		t.Fatal("problem mismatch accepted")
	}
	if err := snap.Validate("sod", 16, 2, p.Mesh.NEl+1, p.Mesh.NNd); err == nil {
		t.Fatal("element-count mismatch accepted")
	}
	snap.Rho = snap.Rho[:len(snap.Rho)-1]
	if err := snap.Validate("sod", 16, 2, p.Mesh.NEl, p.Mesh.NNd); err == nil {
		t.Fatal("internally inconsistent snapshot accepted")
	}
}

// A snapshot assembled rank-by-rank through Gather must equal a serial
// Capture of the same global state, and Restore must restrict it back
// onto any sub-mesh exactly.
func TestDistributedGatherMatchesSerialCapture(t *testing.T) {
	p, err := setup.Sod(32, 4)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := p.NewState()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		if _, err := serial.Step(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	want := Capture(serial, "sod", 32, 4)

	// Build 3 local states and copy the evolved serial fields onto
	// them (owned and ghost), as a converged parallel run would hold.
	part, err := partition.RCBMesh(p.Mesh, 3)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := partition.Split(p.Mesh, part, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := New("sod", 32, 4, p.Mesh.NEl, p.Mesh.NNd)
	for _, sm := range subs {
		lm := sm.M
		rho := make([]float64, lm.NEl)
		ein := make([]float64, lm.NEl)
		for i, ge := range lm.GlobalEl {
			rho[i] = p.Rho[ge]
			ein[i] = p.Ein[ge]
		}
		ls, err := hydro.NewState(lm, p.Opt, rho, ein)
		if err != nil {
			t.Fatal(err)
		}
		if err := want.Restore(ls, "sod", 32, 4); err != nil {
			t.Fatal(err)
		}
		if err := got.Gather(ls); err != nil {
			t.Fatal(err)
		}
	}
	got.SetClock(want.Time, want.DtPrev, want.StepCount, want.ExternalWork, want.FloorEnergy)

	for e := 0; e < want.NEl; e++ {
		if got.Rho[e] != want.Rho[e] || got.Ein[e] != want.Ein[e] || got.Mass[e] != want.Mass[e] {
			t.Fatalf("gathered element %d differs from serial capture", e)
		}
		for k := 0; k < 4; k++ {
			if got.CMass[4*e+k] != want.CMass[4*e+k] {
				t.Fatalf("gathered corner mass %d/%d differs", e, k)
			}
		}
	}
	for n := 0; n < want.NNd; n++ {
		if got.X[n] != want.X[n] || got.U[n] != want.U[n] || got.NdMass[n] != want.NdMass[n] {
			t.Fatalf("gathered node %d differs from serial capture", n)
		}
	}
}

// validDump is a small clean dump for the corruption tests.
func validDump(t testing.TB) []byte {
	p, err := setup.Sod(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.NewState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(nil, nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Capture(s, "sod", 4, 1).Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readFlipped flips one bit of dump and reports whether Read refused it.
func readFlipped(dump []byte, off int, bit uint) bool {
	b := append([]byte(nil), dump...)
	b[off] ^= 1 << bit
	_, err := Read(bytes.NewReader(b))
	return err != nil
}

// TestEveryBitFlipFails: the checksum trailer turns every single-bit
// flip of a dump, anywhere in it, into a Read error.
func TestEveryBitFlipFails(t *testing.T) {
	dump := validDump(t)
	if _, err := Read(bytes.NewReader(dump)); err != nil {
		t.Fatalf("clean dump: %v", err)
	}
	for off := range dump {
		for bit := uint(0); bit < 8; bit++ {
			if !readFlipped(dump, off, bit) {
				t.Fatalf("flipping bit %d of byte %d of %d was read as a valid dump", bit, off, len(dump))
			}
		}
	}
}

func FuzzCheckpointRead(f *testing.F) {
	dump := validDump(f)
	for _, off := range []uint{0, 1, 17, uint(len(dump) / 2), uint(len(dump) - 5), uint(len(dump) - 1)} {
		f.Add(off, uint8(4))
	}
	f.Fuzz(func(t *testing.T, off uint, bit uint8) {
		if !readFlipped(dump, int(off%uint(len(dump))), uint(bit%8)) {
			t.Fatalf("flipping bit %d of byte %d was read as a valid dump", bit%8, off%uint(len(dump)))
		}
	})
}

// TestReadLegacyDumpIsVersionError: a dump from before the checksum
// trailer (format version 2, the bare gob stream) is a version error,
// not a corruption report.
func TestReadLegacyDumpIsVersionError(t *testing.T) {
	p, _ := setup.Sod(8, 2)
	s, _ := p.NewState()
	snap := Capture(s, "sod", 8, 2)
	snap.Version = 2
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); !errors.Is(err, ErrVersion) {
		t.Fatalf("version-2 dump: error %v does not match ErrVersion", err)
	}
}
