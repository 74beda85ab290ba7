package worldgen

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"hsprofiler/internal/sim"
	"hsprofiler/internal/socialgraph"
)

// FuzzReadSnapshot hardens the binary loader against hostile or damaged
// snapshot files: any input must produce either a valid world or an error
// wrapping ErrSnapshot — never a panic, and never an allocation driven by a
// lying length prefix. The seed corpus applies the fault injector's
// body-mangling repertoire (truncate mid-body, garble with trailing junk,
// bit rot) plus version skew to a small valid snapshot.
func FuzzReadSnapshot(f *testing.F) {
	w, err := GenerateParallel(varyConfig(1), 1, 2)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("HSWB"))
	f.Add([]byte("not a snapshot at all"))
	// Truncations: cut off mid-header, mid-section, mid-checksum.
	for _, frac := range []int{1, 7, 50, 90, 99} {
		f.Add(append([]byte(nil), valid[:len(valid)*frac/100]...))
	}
	// Garbles: truncate and append junk (the faults.Garble shape).
	garbled := append(append([]byte(nil), valid[:len(valid)/2]...), []byte("\x00\xff\x13\x37garbage")...)
	f.Add(garbled)
	// Bit rot across the file.
	for _, pos := range []int{0, 3, 5, 9, len(valid) / 2, len(valid) - 5} {
		mut := append([]byte(nil), valid...)
		mut[pos] ^= 0x80
		f.Add(mut)
	}
	// Version skew: the version varint sits right after the 4-byte magic.
	for _, v := range []byte{0, 1, 3, 0xFF} {
		mut := append([]byte(nil), valid...)
		mut[4] = v
		f.Add(mut)
	}
	// Oversized people-count claim inside an otherwise plausible meta
	// section header.
	f.Add([]byte("HSWB\x02\x01\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\x01"))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadBinary(bytes.NewReader(data))
		checkDecoded(t, got, err)
	})
}

// FuzzReadJSON holds the JSON reader to FuzzReadSnapshot's property. The
// seed corpus is a valid snapshot plus the hostile shapes
// TestReadJSONRejectsGarbage pins: endpoints outside the people, an edge to
// a person without an account, a self-loop, null records.
func FuzzReadJSON(f *testing.F) {
	w := fuzzWorld(f)
	var buf bytes.Buffer
	if err := w.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, tc := range hostileJSON(f, w) {
		f.Add(tc.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadJSON(bytes.NewReader(data))
		checkDecoded(t, got, err)
	})
}

// fuzzWorld is a valid world of three people, small enough that the
// fuzzer's minimizer spends milliseconds, not the whole run, on each new
// input: a student and an outside friend with accounts, and the student's
// parent without one.
func fuzzWorld(t testing.TB) *World {
	t.Helper()
	teen := sim.Date{Year: 1996, Month: 5, Day: 2}
	adult := sim.Date{Year: 1970, Month: 1, Day: 1}
	w := &World{
		Seed:    1,
		Now:     sim.Date{Year: 2012, Month: 4, Day: 1},
		Schools: []*School{{Name: "Fuzz High", City: "Fuzzton", GradYears: [4]int{2012, 2013, 2014, 2015}}},
		People: []*Person{
			{ID: 0, Role: RoleStudent, SchoolID: 0, GradYear: 2014, TrueBirth: teen, HasAccount: true, RegisteredBirth: teen},
			{ID: 1, Role: RoleOutside, SchoolID: -1, TrueBirth: adult, HasAccount: true, RegisteredBirth: adult},
			{ID: 2, Role: RoleParent, SchoolID: -1, TrueBirth: adult, ChildIDs: []socialgraph.UserID{0}},
		},
	}
	if err := w.buildGraph(1, []socialgraph.Edge{{A: 0, B: 1}}); err != nil {
		t.Fatal(err)
	}
	return w
}

// checkDecoded is the snapshot readers' fuzz property: an error wraps
// ErrSnapshot and comes without a world; an accepted input is a fully valid
// world — positional people, coherent graph, invariants intact.
func checkDecoded(t *testing.T, got *World, err error) {
	t.Helper()
	if err != nil {
		if got != nil {
			t.Fatal("world returned alongside error")
		}
		if !errors.Is(err, ErrSnapshot) {
			t.Fatalf("error not typed ErrSnapshot: %v", err)
		}
		return
	}
	if got == nil {
		t.Fatal("nil world without error")
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("accepted world violates invariants: %v", err)
	}
}

// TestReadBinaryErrorsAreTyped pins the error contract the fuzz target
// relies on: decode failures, and decoded worlds that fail their
// invariants, wrap ErrSnapshot so callers can distinguish corrupt files
// from I/O problems.
func TestReadBinaryErrorsAreTyped(t *testing.T) {
	w, err := GenerateParallel(TinyConfig(), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	valid := bytes.Clone(buf.Bytes())
	// A well-formed snapshot of an incoherent world: an account registered
	// with a birth date later than the true one.
	for _, p := range w.People {
		if p.HasAccount {
			p.RegisteredBirth = p.TrueBirth.AddYears(1)
			break
		}
	}
	buf.Reset()
	if err := w.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	incoherent := buf.Bytes()
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("XXXX....")},
		{"version skew", append(append([]byte(nil), valid[:4]...), append([]byte{9}, valid[5:]...)...)},
		{"truncated", valid[:len(valid)/3]},
		{"checksum", flipByte(valid, len(valid)/2)},
		{"invariants", incoherent},
	} {
		_, err := ReadBinary(bytes.NewReader(tc.data))
		if err == nil {
			// A mid-payload bit flip is caught by the section checksum, so
			// every case here must error.
			t.Fatalf("%s: accepted", tc.name)
		}
		if !errors.Is(err, ErrSnapshot) {
			t.Fatalf("%s: error not typed ErrSnapshot: %v", tc.name, err)
		}
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xFF
	return out
}

// TestLyingLengthsBoundAllocation holds the decoders to the promise in
// FuzzReadSnapshot: a length or ID that claims more than the input holds
// fails with a typed error and drives no allocation beyond a small multiple
// of the input, whether the snapshot comes from a reader or a file. The
// lies are a section header claiming 2^40 payload bytes, a graph payload,
// with a valid checksum, claiming 2^37 edges, and a JSON edge to user 2^24.
func TestLyingLengthsBoundAllocation(t *testing.T) {
	w, err := GenerateParallel(TinyConfig(), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	const header = len("HSWB") + 1 // magic, one-byte version

	// The first section's id, then its length varint: claim 2^40 bytes.
	_, k := binary.Uvarint(valid[header+1:])
	hugeSection := append(append(append([]byte(nil), valid[:header+1]...), binary.AppendUvarint(nil, 1<<40)...), valid[header+1+k:]...)

	// Re-assemble the snapshot with the graph payload's edge count, which
	// follows the ID-space varint and the present bitmap, rewritten.
	hugeGraph := append([]byte(nil), valid[:header]...)
	for rest := valid[header:]; len(rest) > 0; {
		id, payload, next, err := splitSection(rest)
		if err != nil {
			t.Fatal(err)
		}
		rest = next
		if id == secGraph {
			n, k := binary.Uvarint(payload)
			at := k + int(n+7)/8
			_, users := binary.Uvarint(payload[at:])
			_, edges := binary.Uvarint(payload[at+users:])
			at += users
			payload = append(binary.AppendUvarint(append([]byte(nil), payload[:at]...), 1<<37), payload[at+edges:]...)
		}
		hugeGraph = append(hugeGraph, id)
		hugeGraph = binary.AppendUvarint(hugeGraph, uint64(len(payload)))
		hugeGraph = append(hugeGraph, payload...)
		hugeGraph = binary.LittleEndian.AppendUint32(hugeGraph, crc32.ChecksumIEEE(payload))
	}

	hugeJSON := mutatedJSON(t, w, func(s *snapshot) {
		s.Edges = append(s.Edges, [2]socialgraph.UserID{1, 1 << 24})
	})

	dir := t.TempDir()
	for _, tc := range []struct {
		name  string
		data  []byte
		read  func(io.Reader) (*World, error)
		graph bool
	}{
		{"section claims 2^40 bytes", hugeSection, ReadBinary, false},
		{"graph claims 2^37 edges", hugeGraph, ReadBinary, true},
		{"JSON edge to user 2^24", hugeJSON, ReadJSON, false},
	} {
		path := filepath.Join(dir, "lying.bin")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, src := range []struct {
			name string
			read func() (*World, error)
		}{
			{"reader", func() (*World, error) { return tc.read(bytes.NewReader(tc.data)) }},
			{"file", func() (*World, error) { return ReadSnapshotFile(path) }},
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err := src.read()
			runtime.ReadMemStats(&after)
			if err == nil || got != nil {
				t.Fatalf("%s from %s: accepted", tc.name, src.name)
			}
			if !errors.Is(err, ErrSnapshot) {
				t.Fatalf("%s from %s: error not typed ErrSnapshot: %v", tc.name, src.name, err)
			}
			if tc.graph && !errors.Is(err, socialgraph.ErrCodec) {
				t.Fatalf("%s from %s: lie not caught by the graph decoder: %v", tc.name, src.name, err)
			}
			alloc := after.TotalAlloc - before.TotalAlloc
			if limit := 16 * uint64(len(tc.data)); alloc > limit {
				t.Fatalf("%s from %s: allocated %d bytes for %d input bytes, limit %d", tc.name, src.name, alloc, len(tc.data), limit)
			}
		}
	}
}
