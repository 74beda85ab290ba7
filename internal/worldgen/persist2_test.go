package worldgen

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// ReadBinary decodes a world written by WriteBinary from a reader: it
// reads all of in and decodes the bytes as ReadSnapshotFile does.
func ReadBinary(in io.Reader) (*World, error) {
	data, err := io.ReadAll(in)
	if err != nil {
		return nil, fmt.Errorf("worldgen: reading snapshot: %w", err)
	}
	return decodeBinary(data)
}

// varyConfig derives structurally distinct small configs from a seed so the
// round-trip property is exercised across world shapes, not just one.
func varyConfig(seed uint64) Config {
	cfg := TinyConfig()
	sc := &cfg.Schools[0]
	sc.Students = 40 + int(seed%5)*25
	sc.AlumniClasses = 2 + int(seed%3)
	sc.AlumniPerClass = 10 + int(seed%4)*8
	sc.Teachers = int(seed % 7)
	cfg.Parents = int(seed%4) * 25
	cfg.OutsidePool = 200 + int(seed%3)*300
	if seed%2 == 0 {
		cfg.Schools = append(cfg.Schools, cfg.Schools[0])
		cfg.Schools[1].Label = "TinyHS-B"
	}
	return cfg
}

// TestBinaryRoundTripProperty: for a spread of seeds and world shapes, a
// world must survive World → binary → World with deep equality (people,
// schools, every adjacency row), and the reloaded world must re-encode to
// the identical bytes.
func TestBinaryRoundTripProperty(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 5, 8, 13} {
		cfg := varyConfig(seed)
		for _, gen := range []struct {
			name  string
			build func() (*World, error)
		}{
			{"seq", func() (*World, error) { return Generate(cfg, seed) }},
			{"par", func() (*World, error) { return GenerateParallel(cfg, seed, 4) }},
		} {
			w, err := gen.build()
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, gen.name, err)
			}
			var buf bytes.Buffer
			if err := w.WriteBinary(&buf); err != nil {
				t.Fatalf("seed %d %s: encode: %v", seed, gen.name, err)
			}
			got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("seed %d %s: decode: %v", seed, gen.name, err)
			}
			if d := DiffWorlds(w, got); d != "" {
				t.Fatalf("seed %d %s: round trip diverged: %s", seed, gen.name, d)
			}
			var buf2 bytes.Buffer
			if err := got.WriteBinary(&buf2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
				t.Fatalf("seed %d %s: re-encoding is not byte-stable", seed, gen.name)
			}
		}
	}
}

// TestWriteBinaryMatchesReference holds WriteBinary's bytes to
// writeBinaryRef's on worlds from both generators, at the three scales,
// and after evolution. A world with a person out of place fails both
// writers with the same error, and WriteBinary writes nothing of it.
func TestWriteBinaryMatchesReference(t *testing.T) {
	evolved := func() (*World, error) {
		w, err := GenerateParallel(CityConfig(1), 2013, 2)
		if err != nil {
			return nil, err
		}
		ev := NewEvolver(DefaultEvolveConfig(), 2)
		for year := 1; year <= 3; year++ {
			if _, err := ev.Step(w, year); err != nil {
				return nil, err
			}
		}
		return w, nil
	}
	for _, tc := range []struct {
		name  string
		build func() (*World, error)
	}{
		{"tiny seq", func() (*World, error) { return Generate(TinyConfig(), 42) }},
		{"tiny par", func() (*World, error) { return GenerateParallel(TinyConfig(), 42, 2) }},
		{"hs1", func() (*World, error) { return Generate(HS1Config(), 2013) }},
		{"city1", func() (*World, error) { return GenerateParallel(CityConfig(1), 2013, 2) }},
		{"city1 evolved 3 years", evolved},
	} {
		w, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got, want bytes.Buffer
		if err := w.WriteBinary(&got); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := writeBinaryRef(w, &want); err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: WriteBinary's %d bytes differ from the reference writer's %d", tc.name, got.Len(), want.Len())
		}
	}

	w, err := Generate(TinyConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	w.People[1], w.People[2] = w.People[2], w.People[1]
	var got bytes.Buffer
	err = w.WriteBinary(&got)
	if refErr := writeBinaryRef(w, io.Discard); err == nil || refErr == nil || err.Error() != refErr.Error() {
		t.Fatalf("a person out of place: WriteBinary %v, reference %v", err, refErr)
	}
	if got.Len() != 0 {
		t.Fatalf("a world that fails to encode wrote %d bytes", got.Len())
	}
}

// TestFrozenFromReloadEqualsDirect: the CSR snapshot served from a reloaded
// world must equal the snapshot of the freshly generated one — for the JSON
// path this means the edge-list rebuild converges to the same CSR bytes the
// binary path carries verbatim.
func TestFrozenFromReloadEqualsDirect(t *testing.T) {
	w, err := Generate(TinyConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	direct := w.Frozen()

	var bin bytes.Buffer
	if err := w.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	fromBin, err := ReadBinary(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !fromBin.Frozen().Equal(direct) {
		t.Fatal("frozen from binary reload differs from direct")
	}

	var js bytes.Buffer
	if err := w.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := ReadJSON(bytes.NewReader(js.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !fromJSON.Frozen().Equal(direct) {
		t.Fatal("frozen from JSON reload differs from direct")
	}
}

// TestJSONBinaryEquivalence: loading the same world through either format
// must produce deep-equal worlds with identical fingerprints.
func TestJSONBinaryEquivalence(t *testing.T) {
	w, err := GenerateParallel(TinyConfig(), 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	var js, bin bytes.Buffer
	if err := w.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := ReadJSON(bytes.NewReader(js.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := ReadBinary(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffWorlds(fromJSON, fromBin); d != "" {
		t.Fatalf("JSON and binary load paths diverge: %s", d)
	}
	fpJSON, err := fromJSON.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fpBin, err := fromBin.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpJSON != fpBin {
		t.Fatalf("fingerprints diverge: %s vs %s", fpJSON, fpBin)
	}
}

// TestReadAutoSniffs: ReadSnapshotFile must dispatch on content, not file
// extension.
func TestReadAutoSniffs(t *testing.T) {
	w, err := GenerateParallel(TinyConfig(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, format := range []string{FormatJSON, FormatBinary} {
		path := filepath.Join(dir, "world."+format+".dat")
		if err := w.WriteFile(path, format); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSnapshotFile(path)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if d := DiffWorlds(w, got); d != "" {
			t.Fatalf("%s: reload diverged: %s", format, d)
		}
	}
}

// TestWriteFileAtomic is the regression test for the zero-byte-snapshot bug:
// a failed write must leave no partial file behind, and must not clobber an
// existing good snapshot.
func TestWriteFileAtomic(t *testing.T) {
	w, err := GenerateParallel(TinyConfig(), 11, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// Unwritable destination: parent "directory" is a regular file, so the
	// temp file cannot be created (this fails even for root, unlike
	// permission bits). No file may appear at the target path.
	blocker := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	target := filepath.Join(blocker, "world.bin")
	if err := w.WriteFile(target, FormatBinary); err == nil {
		t.Fatal("write into non-directory succeeded")
	}
	if _, err := os.Stat(target); err == nil {
		t.Fatal("failed write left something at target")
	}

	// Unknown format: must error before touching the filesystem.
	good := filepath.Join(dir, "world.bin")
	if err := w.WriteFile(good, "yaml"); err == nil {
		t.Fatal("unknown format accepted")
	}
	if _, err := os.Stat(good); !os.IsNotExist(err) {
		t.Fatal("failed write created the target file")
	}

	// A successful write over an existing snapshot replaces it completely,
	// and no temp files are left in the directory either way.
	if err := w.WriteFile(good, FormatBinary); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFile(good, FormatBinary); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshotFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffWorlds(w, got); d != "" {
		t.Fatalf("rewritten snapshot diverged: %s", d)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "world.bin" && e.Name() != "not-a-dir" {
			t.Fatalf("stray file %q left in output directory", e.Name())
		}
	}
}

// TestSnapshotWriteAllocs bounds WriteBinary's allocations on the world
// TestSnapshotDecodeAllocs decodes by a fixed overhead, which must not
// grow with the people, strings or edges: the people and graph buffers,
// the small sections and the frame as they grow, the graph goroutine and
// its channel, and the interner's map, sized once from the people count.
// Go 1.24 builds that map from tables of at most 1024 slots, 34
// allocations at this world's size.
func TestSnapshotWriteAllocs(t *testing.T) {
	const writeOverhead = 100 // 45 measured with Go 1.24
	w, err := GenerateParallel(CityConfig(1), 2013, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(3, func() {
		if err := w.WriteBinary(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d people, %d edges: %v allocs, bound %d", len(w.People), w.Frozen().NumEdges(), got, writeOverhead)
	if got > writeOverhead {
		t.Fatalf("WriteBinary made %v allocations, bound %d", got, writeOverhead)
	}
}

// TestSnapshotDecodeAllocs pins decodeBinary's allocations on a fixed
// city-sized world: one per distinct string literal, one per non-empty
// child list and three per school (the School, its name, its city), plus
// decodeOverhead for everything else: the World, the person slab and the
// people and school slices, the graph's Frozen and its three arrays, and
// the literal table's growth.
func TestSnapshotDecodeAllocs(t *testing.T) {
	const decodeOverhead = 32 // 13 measured with Go 1.24
	w, err := GenerateParallel(CityConfig(1), 2013, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	literals := make(map[string]bool)
	children := 0
	for _, p := range w.People {
		for _, s := range []string{p.FirstName, p.LastName, p.AliasName, p.CurrentCity, p.Hometown, p.StreetAddress} {
			literals[s] = true
		}
		if len(p.ChildIDs) > 0 {
			children++
		}
	}
	bound := len(literals) + children + 3*len(w.Schools) + decodeOverhead
	got := testing.AllocsPerRun(3, func() {
		if _, err := decodeBinary(data); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d people, %d literals, %d child lists, %d schools: %v allocs, bound %d",
		len(w.People), len(literals), children, len(w.Schools), got, bound)
	if got > float64(bound) {
		t.Fatalf("decodeBinary made %v allocations, bound %d", got, bound)
	}
}
