package checkpoint

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"bookleaf/internal/atomicfile"

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
	for _, damage := range []struct {
		what string
		do   func(fs []Field)
	}{
		{"a short field", func(fs []Field) { fs[4].Data = fs[4].Data[:len(fs[4].Data)-1] }},
		{"a renamed field", func(fs []Field) { fs[0].Name = "xx" }},
		{"two fields swapped", func(fs []Field) { fs[0], fs[1] = fs[1], fs[0] }},
	} {
		bad := *snap
		bad.Fields = append([]Field(nil), snap.Fields...)
		damage.do(bad.Fields)
		if err := bad.Validate("sod", 16, 2, p.Mesh.NEl, p.Mesh.NNd); err == nil {
			t.Errorf("snapshot with %s accepted", damage.what)
		}
		if err := bad.Restore(s, "sod", 16, 2); err == nil {
			t.Errorf("snapshot with %s restored", damage.what)
		}
	}
	bad := *snap
	bad.Fields = snap.Fields[:len(snap.Fields)-1]
	if err := bad.Validate("sod", 16, 2, p.Mesh.NEl, p.Mesh.NNd); err == nil {
		t.Error("snapshot missing a field accepted")
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
	got.Clock = want.Clock

	for i, f := range want.Fields {
		for j, v := range f.Data {
			if math.Float64bits(got.Fields[i].Data[j]) != math.Float64bits(v) {
				t.Fatalf("gathered %s[%d] = %v, serial capture %v", f.Name, j, got.Fields[i].Data[j], v)
			}
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

// TestReadV3DumpIsVersionError: a format-v3 dump, its fields named
// struct members behind the checksum trailer, reads as a version
// error, not as a corruption report.
func TestReadV3DumpIsVersionError(t *testing.T) {
	type v3 struct {
		Version                                                   int
		Problem                                                   string
		NX, NY, NEl, NNd                                          int
		X, Y, U, V, NdMass, Rho, Ein, P, Q, Csq, Vol, Mass, CMass []float64
	}
	old := v3{Version: 3, Problem: "sod", NX: 2, NY: 1, NEl: 2, NNd: 6, Rho: []float64{1, 0.125}}
	var buf bytes.Buffer
	if err := atomicfile.WriteSummed(&buf, func(w io.Writer) error { return gob.NewEncoder(w).Encode(old) }); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); !errors.Is(err, ErrVersion) {
		t.Fatalf("version-3 dump: error %v does not match ErrVersion", err)
	}
}

// stateRow is the State array a dumped row names, found by the field's
// own name, not through the dump's scatter and restrict.
func stateRow(t *testing.T, s *hydro.State, name string) []float64 {
	t.Helper()
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.IsExported() && strings.EqualFold(f.Name, name) {
			return v.Field(i).Interface().([]float64)
		}
	}
	t.Fatalf("dumped row %q names no State field", name)
	return nil
}

// subStates cuts a Sod 12×5 problem into n ranks' local states.
func subStates(t *testing.T, p *setup.Problem, n int) []*hydro.State {
	t.Helper()
	if n == 1 {
		s, err := p.NewState()
		if err != nil {
			t.Fatal(err)
		}
		return []*hydro.State{s}
	}
	part, err := partition.RCBMesh(p.Mesh, n)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := partition.Split(p.Mesh, part, n)
	if err != nil {
		t.Fatal(err)
	}
	var out []*hydro.State
	for _, sm := range subs {
		lm := sm.M
		rho := make([]float64, lm.NEl)
		ein := make([]float64, lm.NEl)
		for i, ge := range lm.GlobalEl {
			rho[i], ein[i] = p.Rho[ge], p.Ein[ge]
		}
		ls, err := hydro.NewState(lm, p.Opt, rho, ein)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ls)
	}
	return out
}

// TestDumpRoundTripsEveryRow writes a pattern into every row a dump
// carries — distinct per row, global entity and corner, so owned and
// ghost copies agree — gathers it at one and at three ranks, restores
// it at one and at three, and expects every local entity's pattern back
// bitwise. A row the dump forgot would come back as the overwrite.
func TestDumpRoundTripsEveryRow(t *testing.T) {
	p, err := setup.Sod(12, 5)
	if err != nil {
		t.Fatal(err)
	}
	pattern := func(row, g, k int) float64 { return float64(row+1)*1e6 + float64(4*g+k) + 0.5 }
	// each visits every local entity of every dumped row of s: the array,
	// the entity's first slot in it, its global id and width. A row's
	// global length says its entity: the 12×5 mesh has 60 elements and
	// 78 nodes.
	nel, nnd := p.Mesh.NEl, p.Mesh.NNd
	each := func(s *hydro.State, visit func(row int, a []float64, slot, g, w int)) {
		m := s.Mesh
		for row, f := range hydro.DumpFields(nel, nnd) {
			a := stateRow(t, s, f.Name)
			n, st, w, global := m.NEl, 1, 1, m.GlobalElID
			switch f.Len {
			case nnd:
				n, global = m.NNd, m.GlobalNdID
			case 4 * nel:
				st, w = s.CornerStride(), 4
			}
			for i := 0; i < n; i++ {
				visit(row, a, st*i, global(i), w)
			}
		}
	}
	for _, from := range []int{1, 3} {
		for _, to := range []int{1, 3} {
			t.Run(fmt.Sprintf("gather@%d/restore@%d", from, to), func(t *testing.T) {
				sn := New("sod", 12, 5, p.Mesh.NEl, p.Mesh.NNd)
				for _, s := range subStates(t, p, from) {
					each(s, func(row int, a []float64, slot, g, w int) {
						for k := 0; k < w; k++ {
							a[slot+k] = pattern(row, g, k)
						}
					})
					if err := sn.Gather(s); err != nil {
						t.Fatal(err)
					}
				}
				for _, s := range subStates(t, p, to) {
					each(s, func(_ int, a []float64, slot, _, w int) {
						for k := 0; k < w; k++ {
							a[slot+k] = -1
						}
					})
					if err := sn.Restore(s, "sod", 12, 5); err != nil {
						t.Fatal(err)
					}
					each(s, func(row int, a []float64, slot, g, w int) {
						for k := 0; k < w; k++ {
							if want := pattern(row, g, k); math.Float64bits(a[slot+k]) != math.Float64bits(want) {
								t.Fatalf("row %s global %d corner %d: %v after the round trip, want %v",
									hydro.DumpFields(nel, nnd)[row].Name, g, k, a[slot+k], want)
							}
						}
					})
				}
			})
		}
	}
}
