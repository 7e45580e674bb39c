package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes the output of write to path with crash-safe
// atomicity: the bytes land in a temp file in the same directory, are
// fsynced, and only then renamed over path (followed by a directory
// fsync so the rename itself is durable). A crash at any point leaves
// either the old file or the new one, never a partial write — which is
// the property every snapshot writer in this repo must have, since a
// snapshot is often the only copy of the state.
func WriteFileAtomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return fmt.Errorf("durable: creating temp file: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("durable: fsync temp file: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("durable: renaming into place: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		// Some filesystems refuse directory fsync; the rename is still
		// atomic, only its durability window widens.
		return nil
	}
	return nil
}

const (
	checkpointPrefix = "checkpoint-"
	checkpointSuffix = ".snap"
)

// checkpointName renders the file name of the checkpoint whose snapshot
// covers every WAL segment below seq.
func checkpointName(seq int64) string {
	return fmt.Sprintf("%s%016d%s", checkpointPrefix, seq, checkpointSuffix)
}

// ListCheckpoints returns the checkpoints in dir, ascending. A
// checkpoint's Seq is the WAL segment its snapshot is current up to:
// recovery restores the snapshot and replays segments >= Seq.
func ListCheckpoints(dir string) ([]File, error) {
	return listNumbered(dir, checkpointPrefix, checkpointSuffix)
}

// WriteCheckpoint atomically writes a checkpoint file: the snapshot
// bytes wrapped in the same length+CRC frame as a WAL record, so
// ReadCheckpoint can prove integrity before anything is restored.
func WriteCheckpoint(dir string, seq int64, data []byte) error {
	if int64(len(data)) > math.MaxUint32 {
		// The frame length is uint32; wrapping it would write a file
		// that validates as corrupt on every future boot. Refuse loudly
		// at write time instead.
		return fmt.Errorf("durable: snapshot too large for checkpoint frame (%d bytes)", len(data))
	}
	return WriteFileAtomic(filepath.Join(dir, checkpointName(seq)), func(w io.Writer) error {
		var hdr [headerSize]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(data)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(data, castagnoli))
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		_, err := w.Write(data)
		return err
	})
}

// ReadCheckpoint loads and CRC-validates a checkpoint file, returning
// the snapshot bytes.
func ReadCheckpoint(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < headerSize {
		return nil, fmt.Errorf("%w: checkpoint %s too short", ErrTorn, filepath.Base(path))
	}
	n := binary.LittleEndian.Uint32(raw[0:4])
	want := binary.LittleEndian.Uint32(raw[4:8])
	body := raw[headerSize:]
	if uint32(len(body)) != n || crc32.Checksum(body, castagnoli) != want {
		return nil, fmt.Errorf("%w: checkpoint %s failed validation", ErrTorn, filepath.Base(path))
	}
	return body, nil
}

// Initialized reports whether dir holds at least one checkpoint — the
// marker that a deployment's initial state was fully persisted. A
// directory with WAL segments but no checkpoint is a boot that crashed
// before its first checkpoint (e.g. mid-preload); treating its partial
// log as recoverable state would resurrect a half-initialized world.
func Initialized(dir string) (bool, error) {
	cps, err := ListCheckpoints(dir)
	return len(cps) > 0, err
}

// RemoveSegments deletes every WAL segment in dir. Only valid while no
// WAL is open there; the server uses it to reset an uninitialized
// directory before redoing the preload.
func RemoveSegments(dir string) error {
	segs, err := ListSegments(dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if err := os.Remove(s.Path); err != nil {
			return err
		}
	}
	return nil
}

// RemoveCheckpointsKeep deletes all but the newest keep checkpoints and
// returns the surviving set (ascending). The oldest survivor's Seq is
// the safe WAL truncation bound: segments below it serve no retained
// checkpoint.
func RemoveCheckpointsKeep(dir string, keep int) ([]File, error) {
	if keep < 1 {
		keep = 1
	}
	cps, err := ListCheckpoints(dir)
	if err != nil {
		return nil, err
	}
	for len(cps) > keep {
		if err := os.Remove(cps[0].Path); err != nil {
			return cps, err
		}
		cps = cps[1:]
	}
	return cps, nil
}
