package bookleaf_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"bookleaf"
	"bookleaf/internal/checkpoint"
)

// Resume failures must surface before any ranks spawn, with a clear
// cause: missing file, truncated dump, wrong format version.
func TestResumeMissingFileFails(t *testing.T) {
	for _, ranks := range []int{1, 4} {
		_, err := bookleaf.Run(bookleaf.Config{Problem: "sod", NX: 16, NY: 2, Ranks: ranks, Resume: "/nonexistent/file"})
		if err == nil {
			t.Fatalf("missing resume file accepted at %d ranks", ranks)
		}
		if !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("error does not wrap the open failure: %v", err)
		}
	}
}

func TestResumeTruncatedFileFails(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "whole.ckpt")
	run(t, bookleaf.Config{Problem: "sod", NX: 16, NY: 2, MaxSteps: 10, Checkpoint: ck})

	raw, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.ckpt")
	if err := os.WriteFile(cut, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 2} {
		_, err := bookleaf.Run(bookleaf.Config{Problem: "sod", NX: 16, NY: 2, Ranks: ranks, Resume: cut})
		if err == nil {
			t.Fatalf("truncated dump accepted at %d ranks", ranks)
		}
	}
}

// TestResumeBitFlippedDumpFails: a dump with one flipped bit — in the
// header, the clock, the fields — is refused at resume, never resumed
// into a quietly different state. The offsets span the whole dump.
func TestResumeBitFlippedDumpFails(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "sod.ckpt")
	run(t, bookleaf.Config{Problem: "sod", NX: 100, NY: 4, MaxSteps: 20, Checkpoint: ck})
	clean, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{5000, 15000, 23109, 30000, 40000} {
		if off >= len(clean) {
			t.Fatalf("offset %d past the %d-byte dump", off, len(clean))
		}
		b := append([]byte(nil), clean...)
		b[off] ^= 0x10
		bad := filepath.Join(dir, fmt.Sprintf("flip%d.ckpt", off))
		if err := os.WriteFile(bad, b, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := bookleaf.Run(bookleaf.Config{Problem: "sod", NX: 100, NY: 4, MaxSteps: 40, Resume: bad})
		if err == nil {
			t.Errorf("offset %d: a bit-flipped dump resumed to step %d", off, res.Steps)
		}
	}
}

func TestResumeWrongVersionFails(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "v2.ckpt")
	run(t, bookleaf.Config{Problem: "sod", NX: 16, NY: 2, MaxSteps: 10, Checkpoint: ck})

	f, err := os.Open(ck)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	snap.Version = 1
	old := filepath.Join(dir, "v1.ckpt")
	out, err := os.Create(old)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Write(out); err != nil {
		t.Fatal(err)
	}
	out.Close()

	for _, ranks := range []int{1, 2} {
		_, err := bookleaf.Run(bookleaf.Config{Problem: "sod", NX: 16, NY: 2, Ranks: ranks, Resume: old})
		if !errors.Is(err, checkpoint.ErrVersion) {
			t.Fatalf("version-1 dump at %d ranks: error %v does not match ErrVersion", ranks, err)
		}
	}
}

// A resume dump from a different problem or resolution is rejected up
// front regardless of rank count.
func TestResumeIdentityMismatchFails(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "sod.ckpt")
	run(t, bookleaf.Config{Problem: "sod", NX: 16, NY: 2, MaxSteps: 10, Checkpoint: ck})
	for _, ranks := range []int{1, 2} {
		if _, err := bookleaf.Run(bookleaf.Config{Problem: "sod", NX: 20, NY: 2, Ranks: ranks, Resume: ck}); err == nil {
			t.Fatalf("mismatched resolution accepted at %d ranks", ranks)
		}
	}
}
