package worldgen

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Snapshot file formats accepted by WriteFile.
const (
	FormatJSON   = "json"
	FormatBinary = "bin"
)

// WriteFile writes the world snapshot to path atomically: the bytes go to a
// temporary file in the same directory, are flushed and synced, and the file
// is renamed over path only on success. A failed or interrupted write leaves
// either the previous file or nothing — never a truncated snapshot, and
// never a zero-byte file masking an unwritable output location.
func (w *World) WriteFile(path, format string) error {
	var encode func(io.Writer) error
	switch format {
	case FormatJSON:
		encode = w.WriteJSON
	case FormatBinary:
		encode = w.WriteBinary
	default:
		return fmt.Errorf("worldgen: unknown snapshot format %q (want %q or %q)", format, FormatBinary, FormatJSON)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("worldgen: creating snapshot in %s: %w", dir, err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := encode(tmp); err != nil {
		return fmt.Errorf("worldgen: writing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("worldgen: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("worldgen: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		tmp = nil
		return fmt.Errorf("worldgen: publishing snapshot: %w", err)
	}
	tmp = nil
	return nil
}

// ReadSnapshotFile loads a world snapshot from path in either format,
// sniffing the binary magic. A binary snapshot is read whole into one
// buffer sized from the file's length and decoded in place; JSON streams
// through ReadJSON.
func ReadSnapshotFile(path string) (*World, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("worldgen: opening snapshot: %w", err)
	}
	defer f.Close()
	w, err := readSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("worldgen: loading %s: %w", path, err)
	}
	return w, nil
}

func readSnapshot(f *os.File) (*World, error) {
	var head [len(snapshotMagic)]byte
	n, err := io.ReadFull(f, head[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, fmt.Errorf("worldgen: reading snapshot: %w", err)
	}
	if head != snapshotMagic {
		return ReadJSON(io.MultiReader(bytes.NewReader(head[:n]), f))
	}
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("worldgen: reading snapshot: %w", err)
	}
	// Sized to the whole file plus the room ReadFrom wants free before its
	// final, empty read, so the buffer never grows (a pipe reports size 0
	// and grows as it must).
	buf := bytes.NewBuffer(make([]byte, 0, st.Size()+bytes.MinRead))
	buf.Write(head[:])
	if _, err := buf.ReadFrom(f); err != nil {
		return nil, fmt.Errorf("worldgen: reading snapshot: %w", err)
	}
	return decodeBinary(buf.Bytes())
}
