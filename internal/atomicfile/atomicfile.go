// Package atomicfile is the one writer of durable files: restart dumps,
// metrics files, and the serving daemon's compacted journal, checkpoint
// spills and result files. The bytes go to a temporary sibling, are
// fsynced and are renamed over the target, so a reader, or a restart
// after a crash, finds either the previous file or the complete new
// one, never a torn one.
package atomicfile

import (
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
