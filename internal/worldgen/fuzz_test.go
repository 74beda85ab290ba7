package worldgen

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
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

// FuzzReadJSON holds the JSON reader to FuzzReadSnapshot's property, and
// holds every world it accepts to the binary format: the world's binary
// snapshot decodes, to a world of the same fingerprint. The seed corpus is
// a valid snapshot plus the hostile shapes TestReadJSONRejectsGarbage pins:
// endpoints outside the people, an edge to a person without an account, a
// self-loop, null records, and records the binary reader rejects.
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
		if err == nil {
			checkSurvivesBinary(t, got)
		}
	})
}

// checkSurvivesBinary requires w's binary snapshot to equal the reference
// writer's bytes and to decode to a world of w's fingerprint.
func checkSurvivesBinary(t *testing.T, w *World) {
	t.Helper()
	var buf, ref bytes.Buffer
	if err := w.WriteBinary(&buf); err != nil {
		t.Fatalf("accepted world does not encode: %v", err)
	}
	if err := writeBinaryRef(w, &ref); err != nil {
		t.Fatalf("accepted world does not encode with the reference writer: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), ref.Bytes()) {
		t.Fatal("WriteBinary's bytes differ from the reference writer's")
	}
	back, err := decodeBinary(buf.Bytes())
	if err != nil {
		t.Fatalf("accepted world's binary snapshot fails to decode: %v", err)
	}
	want, err := w.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := back.Fingerprint(); err != nil || got != want {
		t.Fatalf("binary snapshot decodes to fingerprint %s (%v), want %s", got, err, want)
	}
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
	// Well-formed snapshots of incoherent worlds: an account registered
	// with a birth date later than the true one, and an outside account
	// holder, listed and searchable, at a school past the end of the table,
	// which a platform built over the world would index its search by.
	encodeEdited := func(edit func(*Person)) []byte {
		c := w.Clone()
		edit(firstAccount(t, c.People, RoleOutside, RoleParent))
		var out bytes.Buffer
		if err := c.WriteBinary(&out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	incoherent := encodeEdited(func(p *Person) { p.RegisteredBirth = p.TrueBirth.AddYears(1) })
	missingSchool := encodeEdited(func(p *Person) { atMissingSchool(p, len(w.Schools)) })

	// The people and graph sections decode side by side, and a failure in
	// each must still report the first in file order. The section edits
	// keep valid checksums, so each reaches the decoder behind them: a
	// stray byte after the last person, and a graph payload cut in half.
	// Cutting the file's last 100 bytes fails the graph's framing instead.
	badPeople := rewriteSection(t, valid, secPeople, func(b []byte) []byte { return append(bytes.Clone(b), 0) })
	badGraph := func(snap []byte) []byte {
		return rewriteSection(t, snap, secGraph, func(b []byte) []byte { return b[:len(b)/2] })
	}
	badGraphFrame := func(snap []byte) []byte { return snap[:len(snap)-100] }
	const (
		peopleErr = "1 trailing bytes in people section"
		graphErr  = "graph: socialgraph:"
		frameErr  = "section 0x4 declares"
	)
	for _, tc := range []struct {
		name string
		data []byte
		want string // what the error must say, if anything in particular
	}{
		{"empty", nil, ""},
		{"bad magic", []byte("XXXX...."), ""},
		{"version skew", append(append([]byte(nil), valid[:4]...), append([]byte{9}, valid[5:]...)...), ""},
		{"truncated", valid[:len(valid)/3], ""},
		{"checksum", flipByte(valid, len(valid)/2), ""},
		{"invariants", incoherent, ""},
		{"school out of range", missingSchool, ""},
		{"order/people record beside bad graph", badGraph(badPeople), peopleErr},
		{"order/people record beside bad graph framing", badGraphFrame(badPeople), peopleErr},
		{"order/bad graph alone", badGraph(valid), graphErr},
		{"order/bad graph framing alone", badGraphFrame(valid), frameErr},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadBinary(bytes.NewReader(tc.data))
			if err == nil {
				// A mid-payload bit flip is caught by the section checksum,
				// so every case here must error.
				t.Fatal("accepted")
			}
			if !errors.Is(err, ErrSnapshot) {
				t.Fatalf("error not typed ErrSnapshot: %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %q, want the error naming %q", err, tc.want)
			}
		})
	}
}

// firstAccount returns the first account holder with one of the roles.
func firstAccount(t testing.TB, people []*Person, roles ...Role) *Person {
	t.Helper()
	for _, p := range people {
		if p.HasAccount && slices.Contains(roles, p.Role) {
			return p
		}
	}
	t.Fatalf("no account holder with a role in %v", roles)
	return nil
}

// atMissingSchool moves p to school id, listed and searchable, so a
// platform built over the world would index the school.
func atMissingSchool(p *Person, id int) {
	p.SchoolID = id
	p.ListsSchool = true
	p.Privacy.PublicSearch = true
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
// lies are a section header claiming 2^40 payload bytes, a meta section
// claiming one person per byte of the people section or as many as its
// bytes can hold, a graph payload claiming 2^37 edges, all with valid
// checksums, and a JSON edge to user 2^24. The graph decodes beside the
// people, so a people-count lie allocates the valid graph too.
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

	// The meta section's people count, its last varint, rewritten: to the
	// people section's length, and to the most records that length can
	// hold, which sizes the person slab and fails at the first missing
	// record while the valid graph beside it decodes.
	peopleBytes := len(sectionPayload(t, valid, secPeople))
	peopleCount := func(n int) []byte {
		return rewriteSection(t, valid, secMeta, func(meta []byte) []byte {
			r := reader{b: meta}
			r.uvarint("seed")
			r.date("date")
			r.uvarint("school count")
			return binary.AppendUvarint(bytes.Clone(meta[:r.i]), uint64(n))
		})
	}
	hugePeople := peopleCount(peopleBytes)
	slabPeople := peopleCount(peopleBytes / minPersonBytes)

	// The graph payload's edge count, which follows the ID-space varint,
	// the present bitmap and the user count, rewritten.
	hugeGraph := rewriteSection(t, valid, secGraph, func(payload []byte) []byte {
		n, k := binary.Uvarint(payload)
		at := k + int(n+7)/8
		_, users := binary.Uvarint(payload[at:])
		_, edges := binary.Uvarint(payload[at+users:])
		at += users
		return append(binary.AppendUvarint(bytes.Clone(payload[:at]), 1<<37), payload[at+edges:]...)
	})

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
		{"people count claims one person per byte", hugePeople, ReadBinary, false},
		{"people count claims a full slab beside a valid graph", slabPeople, ReadBinary, false},
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
			t.Logf("%s from %s: %d bytes allocated for %d input bytes", tc.name, src.name, alloc, len(tc.data))
			if limit := 16 * uint64(len(tc.data)); alloc > limit {
				t.Fatalf("%s from %s: allocated %d bytes for %d input bytes, limit %d", tc.name, src.name, alloc, len(tc.data), limit)
			}
		}
	}
}

// sectionPayload returns the payload of the snapshot's section id.
func sectionPayload(t *testing.T, snap []byte, id byte) []byte {
	t.Helper()
	for rest := snap[len("HSWB")+1:]; len(rest) > 0; {
		got, payload, next, err := splitSection(rest)
		if err != nil {
			t.Fatal(err)
		}
		if got == id {
			return payload
		}
		rest = next
	}
	t.Fatalf("no section %#x", id)
	return nil
}

// rewriteSection re-assembles the snapshot with section id's payload
// replaced by edit's result under a recomputed length and checksum, so the
// decoder behind the checksum sees the edit.
func rewriteSection(t *testing.T, snap []byte, id byte, edit func([]byte) []byte) []byte {
	t.Helper()
	const header = len("HSWB") + 1 // magic, one-byte version
	out := bytes.Clone(snap[:header])
	for rest := snap[header:]; len(rest) > 0; {
		got, payload, next, err := splitSection(rest)
		if err != nil {
			t.Fatal(err)
		}
		rest = next
		if got == id {
			payload = edit(payload)
		}
		out = append(out, got)
		out = binary.AppendUvarint(out, uint64(len(payload)))
		out = append(out, payload...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	}
	return out
}

// TestMinPersonBytes holds minPersonBytes to the shortest record
// appendPeople emits, a person whose strings are all back-references and
// whose numbers all fit one byte: a larger bound would reject valid
// sections, a smaller one would let a lying count size a larger slab.
func TestMinPersonBytes(t *testing.T) {
	people := make([]*Person, 4)
	for i := range people {
		people[i] = &Person{ID: socialgraph.UserID(i), SchoolID: -1}
	}
	section, err := appendPeople(nil, people)
	if err != nil {
		t.Fatal(err)
	}
	// The first record carries the empty string's literal, one byte more.
	if got, want := len(section), 1+len(people)*minPersonBytes; got != want {
		t.Fatalf("%d minimal people take %d bytes, want %d", len(people), got, want)
	}
	if _, err := decodePeople(section, len(people)); err != nil {
		t.Fatal(err)
	}
	if _, err := decodePeople(section, len(people)+1); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("one person too many: got %v, want ErrSnapshot", err)
	}
}

// FuzzPeopleSection drives the people-section decoder directly, past the
// checksum that stops FuzzReadSnapshot's mutations. decodePeople must
// accept exactly what decodePeopleReference accepts and decode the same
// people, and type every error ErrSnapshot. The seeds are three people's
// section and peopleVarintCases.
func FuzzPeopleSection(f *testing.F) {
	section, err := appendPeople(nil, fuzzWorld(f).People)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(section, uint32(3))
	f.Add(section, uint32(4))
	for _, tc := range peopleVarintCases(f) {
		f.Add(tc.data, uint32(1))
	}
	f.Fuzz(func(t *testing.T, payload []byte, n uint32) {
		got, err := decodePeople(payload, int(n))
		want, refErr := decodePeopleReference(payload, int(n))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decodePeople %v, reference %v", err, refErr)
		}
		if err != nil {
			if !errors.Is(err, ErrSnapshot) || !errors.Is(refErr, ErrSnapshot) {
				t.Fatalf("errors not typed ErrSnapshot: %v; reference %v", err, refErr)
			}
			if got != nil {
				t.Fatal("people returned alongside error")
			}
			return
		}
		samePeople(t, got, want)
	})
}

// samePeople requires reflect.DeepEqual people, except that Sociality,
// which any eight bytes decode to, is compared by its bits: DeepEqual
// holds no NaN equal to itself.
func samePeople(t *testing.T, got, want []*Person) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d people, reference %d", len(got), len(want))
	}
	for i := range got {
		g, w := *got[i], *want[i]
		if math.Float64bits(g.Sociality) != math.Float64bits(w.Sociality) {
			t.Fatalf("person %d: sociality %v, reference %v", i, g.Sociality, w.Sociality)
		}
		g.Sociality, w.Sociality = 0, 0
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("person %d: %+v, reference %+v", i, g, w)
		}
	}
}

type peopleCase struct {
	name     string
	data     []byte
	children []socialgraph.UserID // nil: decoding must fail
}

// peopleVarintCases are one-person people sections whose varints sit at
// the edges of the one-, two- and three-byte widths: children 127, 128,
// 16383 and 16384, then child 5 written as a ten-byte varint, which
// decodes, and as an eleven-byte one, which overflows.
func peopleVarintCases(t testing.TB) []peopleCase {
	t.Helper()
	adult := sim.Date{Year: 1970, Month: 1, Day: 1}
	p := &Person{Role: RoleParent, SchoolID: -1, TrueBirth: adult, RegisteredBirth: adult, PhotosShared: 16384}
	section := func() []byte {
		b, err := appendPeople(nil, []*Person{p})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	childless := section() // ends with the child count, 0
	padded := func(size int) []byte {
		out := append(bytes.Clone(childless[:len(childless)-1]), 1, 0x85)
		out = append(out, bytes.Repeat([]byte{0x80}, size-2)...)
		return append(out, 0)
	}
	p.ChildIDs = []socialgraph.UserID{127, 128, 16383, 16384}
	return []peopleCase{
		{"children at 127, 128, 16383, 16384", section(), p.ChildIDs},
		{"ten-byte child", padded(10), []socialgraph.UserID{5}},
		{"eleven-byte child", padded(11), nil},
	}
}

// TestDecodePeopleVarintWidths decodes FuzzPeopleSection's varint seeds.
func TestDecodePeopleVarintWidths(t *testing.T) {
	for _, tc := range peopleVarintCases(t) {
		got, err := decodePeople(tc.data, 1)
		if tc.children == nil {
			if !errors.Is(err, ErrSnapshot) {
				t.Fatalf("%s: got %v, want ErrSnapshot", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got[0].ChildIDs, tc.children) || got[0].PhotosShared != 16384 {
			t.Fatalf("%s: children %v, photos %d", tc.name, got[0].ChildIDs, got[0].PhotosShared)
		}
	}
}
