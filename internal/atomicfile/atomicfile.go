// Package atomicfile is the one writer of durable files: restart dumps,
// metrics files, and the serving daemon's compacted journal, checkpoint
// spills and result files. The bytes go to a temporary sibling, are
// fsynced and are renamed over the target, so a reader, or a restart
// after a crash, finds either the previous file or the complete new
// one, never a torn one.
//
// Restart dumps and result files also carry a CRC-32C trailer
// (WriteSummed, Summed), so a file damaged after it was written — a
// flipped bit, a cut tail — is an error when it is read, never a
// quietly different state. Sum is the same checksum for a caller that
// seals smaller records, such as the lines of the serving journal.
package atomicfile

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
)

// Write replaces path with what write produces. On any failure the
// previous file at path is untouched and the temporary path+".tmp" is
// removed.
func Write(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Sum is the CRC-32C of b, the checksum WriteSummed writes.
func Sum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// ErrChecksum is every trailer failure of a checksummed file: truncated,
// bit-flipped, or written without a trailer.
var ErrChecksum = errors.New("checksum mismatch")

// WriteSummed writes what write produces to w, then the CRC-32C of
// those bytes, little-endian.
func WriteSummed(w io.Writer, write func(io.Writer) error) error {
	h := crc32.New(castagnoli)
	if err := write(io.MultiWriter(w, h)); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, h.Sum32())
}

// Summed returns the payload of b, bytes WriteSummed wrote, or
// ErrChecksum when the trailer does not match it.
func Summed(b []byte) ([]byte, error) {
	n := len(b) - 4
	if n < 0 || Sum(b[:n]) != binary.LittleEndian.Uint32(b[n:]) {
		return nil, ErrChecksum
	}
	return b[:n], nil
}
