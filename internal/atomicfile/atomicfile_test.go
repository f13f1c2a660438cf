package atomicfile

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFailingPartWayKeepsPrevious: a write that fails after some
// of its bytes are out leaves the previous file byte-identical and no
// temporary behind; the next successful write replaces it whole.
func TestWriteFailingPartWayKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	prev := bytes.Repeat([]byte("good dump "), 1000)
	if err := Write(path, func(w io.Writer) error { _, err := w.Write(prev); return err }); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("disk full")
	err := Write(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("half a new dump")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want %v", err, boom)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, prev) {
		t.Fatalf("previous file changed after a failed write (%d bytes, %v)", len(got), err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("failed write left %v, want only run.ckpt", names)
	}

	next := []byte("next dump")
	if err := Write(path, func(w io.Writer) error { _, err := w.Write(next); return err }); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, next) {
		t.Fatalf("file holds %q after a successful write, want %q", got, next)
	}
}

// TestSummedRoundTrip: Summed returns exactly what WriteSummed was given,
// and refuses a cut, an extended or an empty stream.
func TestSummedRoundTrip(t *testing.T) {
	payload := []byte("restart dump payload")
	var buf bytes.Buffer
	if err := WriteSummed(&buf, func(w io.Writer) error { _, err := w.Write(payload); return err }); err != nil {
		t.Fatal(err)
	}
	got, err := Summed(buf.Bytes())
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Summed = %q, %v; want %q", got, err, payload)
	}
	b := buf.Bytes()
	for name, bad := range map[string][]byte{
		"cut":      b[:len(b)-1],
		"extended": append(append([]byte(nil), b...), 0),
		"empty":    nil,
		"unsummed": payload,
	} {
		if _, err := Summed(bad); !errors.Is(err, ErrChecksum) {
			t.Errorf("%s: error %v, want ErrChecksum", name, err)
		}
	}
	fail := errors.New("encode failed")
	if err := WriteSummed(io.Discard, func(io.Writer) error { return fail }); !errors.Is(err, fail) {
		t.Errorf("a failing write returned %v", err)
	}
}
