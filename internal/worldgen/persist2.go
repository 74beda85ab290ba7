package worldgen

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"hsprofiler/internal/namegen"
	"hsprofiler/internal/sim"
	"hsprofiler/internal/socialgraph"
)

// Binary snapshot format, version 2.
//
//	magic "HSWB" | uvarint version | section* | end section
//
// Each section is: 1-byte id, uvarint payload length, payload, 4-byte
// little-endian IEEE CRC32 of the payload. Sections appear in a fixed order
// (meta, schools, people, graph, end); a reader that encounters an unknown
// id between graph and end may skip it by its declared length, which is the
// forward-compatibility hook: additive sections do not bump the version,
// layout changes of existing sections do.
//
// People are encoded positionally (person i is record i) with string
// back-references: the first occurrence of any string is a literal and every
// later occurrence is an index into the table of literals seen so far, so
// surnames, city names and shared household addresses are stored once. The
// graph section holds the socialgraph CSR codec bytes verbatim.
//
// A snapshot is decoded from one buffer holding all of it, and every length
// prefix is untrusted: each is checked against the bytes actually present
// before anything is allocated on its behalf, so a garbled header cannot
// drive allocation beyond a small multiple of the real input, and any
// structural violation surfaces as an error wrapping ErrSnapshot — never a
// panic.

// ErrSnapshot is wrapped by every snapshot decode error, binary or JSON,
// including a decoded world that fails its invariants.
var ErrSnapshot = errors.New("worldgen: malformed snapshot")

var snapshotMagic = [4]byte{'H', 'S', 'W', 'B'}

const (
	binaryVersion = 2

	secMeta    = 1
	secSchools = 2
	secPeople  = 3
	secGraph   = 4
	secEnd     = 0xFF

	// maxSnapshotPeople bounds the people count a snapshot may declare
	// (same spirit as the socialgraph codec's ID-space cap).
	maxSnapshotPeople = 1 << 31

	// minPersonBytes is the shortest record appendPeople can emit: six
	// one-byte string tags, gender, role, two dates of at least 3 bytes,
	// school, grad year, flags, two privacy bytes, photos, the 8-byte
	// sociality and the child count.
	minPersonBytes = 29
)

// WriteBinary encodes the world in snapshot format v2 and writes it to out.
// One goroutine encodes the graph section while this one encodes the meta,
// schools and people sections, and only once both are done are the
// sections written to out, each with its id, length and checksum. So every
// payload is held in memory at once, the working set is the whole snapshot
// (3.1 MB of people and 10.7 MB of graph for a metro world of 80 schools),
// and a world that fails to encode writes nothing.
func (w *World) WriteBinary(out io.Writer) error {
	graph := make(chan []byte, 1)
	go func(f *socialgraph.Frozen) { graph <- f.AppendBinary(nil) }(w.Frozen())

	var meta []byte
	meta = binary.AppendUvarint(meta, w.Seed)
	meta = appendDate(meta, w.Now)
	meta = binary.AppendUvarint(meta, uint64(len(w.Schools)))
	meta = binary.AppendUvarint(meta, uint64(len(w.People)))

	var schools []byte
	for _, s := range w.Schools {
		schools = binary.AppendUvarint(schools, uint64(s.ID))
		schools = appendString(schools, s.Name)
		schools = appendString(schools, s.City)
		for _, y := range s.GradYears {
			schools = binary.AppendUvarint(schools, uint64(y))
		}
	}

	people, err := appendPeople(nil, w.People)
	g := <-graph
	if err != nil {
		return err
	}

	// frame holds the bytes between two payloads: the previous section's
	// checksum and the next section's id and length.
	frame := binary.AppendUvarint(append([]byte(nil), snapshotMagic[:]...), binaryVersion)
	for _, s := range []struct {
		id      byte
		payload []byte
	}{{secMeta, meta}, {secSchools, schools}, {secPeople, people}, {secGraph, g}, {secEnd, nil}} {
		frame = binary.AppendUvarint(append(frame, s.id), uint64(len(s.payload)))
		if _, err := out.Write(frame); err != nil {
			return err
		}
		if _, err := out.Write(s.payload); err != nil {
			return err
		}
		frame = binary.LittleEndian.AppendUint32(frame[:0], crc32.ChecksumIEEE(s.payload))
	}
	_, err = out.Write(frame)
	return err
}

// appendPeople appends the people section to b: one positional record per
// person, strings interned by back-reference (see interner). b grows once,
// by 64 bytes a person, more than generated worlds' records take (45 bytes
// a person in a metro world, 51 in the tiny world), and the interner's map
// is sized for a literal a person (0.81 in a metro world, 1.11 in a city
// world).
func appendPeople(b []byte, people []*Person) ([]byte, error) {
	b = slices.Grow(b, 64*len(people))
	in := make(interner, len(people))
	for i, p := range people {
		if p == nil || int(p.ID) != i {
			return nil, fmt.Errorf("worldgen: person at index %d not positional", i)
		}
		b = in.append(b, p.FirstName)
		b = in.append(b, p.LastName)
		b = in.append(b, p.AliasName)
		b = append(b, byte(p.Gender), byte(p.Role))
		b = appendDate(b, p.TrueBirth)
		b = binary.AppendVarint(b, int64(p.SchoolID))
		b = binary.AppendVarint(b, int64(p.GradYear))
		b = in.append(b, p.CurrentCity)
		b = in.append(b, p.Hometown)
		b = in.append(b, p.StreetAddress)
		var flags byte
		setBit(&flags, 0, p.HasAccount)
		setBit(&flags, 1, p.LiedAtSignup)
		setBit(&flags, 2, p.ListsSchool)
		setBit(&flags, 3, p.ListsGradSchool)
		setBit(&flags, 4, p.ListsCity)
		b = append(b, flags)
		b = appendDate(b, p.RegisteredBirth)
		b = append(b, packPrivacyLow(p.Privacy), packPrivacyHigh(p.Privacy))
		b = binary.AppendUvarint(b, uint64(p.PhotosShared))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.Sociality))
		b = binary.AppendUvarint(b, uint64(len(p.ChildIDs)))
		for _, c := range p.ChildIDs {
			b = binary.AppendUvarint(b, uint64(c))
		}
	}
	return b, nil
}

// decodeBinary decodes a complete binary snapshot. Each section is a
// checksummed subslice of data, and every decoded value is a copy, so data
// can be freed once this returns. The graph section's decoder proves the
// graph's invariants, so only the people are checked here.
//
// The people and graph sections share no bytes and no state, so once the
// people section is framed, one goroutine frames and decodes the graph
// section while this one decodes the people. Both finish before anything
// is reported, and failures are reported in file order (people framing,
// people records, graph framing, graph), so every input fails with the
// error a section-by-section reader would give.
func decodeBinary(data []byte) (*World, error) {
	if len(data) < len(snapshotMagic) || [4]byte(data) != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrSnapshot, data[:min(len(data), len(snapshotMagic))])
	}
	rest := data[len(snapshotMagic):]
	version, k := binary.Uvarint(rest)
	if k <= 0 {
		return nil, fmt.Errorf("%w: version: malformed varint", ErrSnapshot)
	}
	rest = rest[k:]
	if version != binaryVersion {
		return nil, fmt.Errorf("%w: version %d unsupported (reader handles %d)", ErrSnapshot, version, binaryVersion)
	}

	w := &World{}

	// meta
	payload, rest, err := nextSection(rest, secMeta)
	if err != nil {
		return nil, err
	}
	r := reader{b: payload}
	w.Seed = r.uvarint("seed")
	w.Now = r.date("date")
	nSchools64 := r.uvarint("school count")
	nPeople64 := r.uvarint("people count")
	if r.err != nil {
		return nil, fmt.Errorf("%w: meta %v", ErrSnapshot, r.err)
	}
	if nPeople64 > maxSnapshotPeople || nSchools64 > nPeople64 {
		return nil, fmt.Errorf("%w: counts %d schools / %d people out of range", ErrSnapshot, nSchools64, nPeople64)
	}

	// schools
	if payload, rest, err = nextSection(rest, secSchools); err != nil {
		return nil, err
	}
	if w.Schools, err = decodeSchools(payload, int(nSchools64)); err != nil {
		return nil, err
	}

	// people, with the graph beside them
	if payload, rest, err = nextSection(rest, secPeople); err != nil {
		return nil, err
	}
	graph := make(chan graphSection, 1)
	go decodeGraphSection(rest, graph)
	w.People, err = decodePeople(payload, int(nPeople64))
	g := <-graph
	if err != nil {
		return nil, err
	}
	if g.err != nil {
		return nil, g.err
	}
	w.SetFrozen(g.frozen)
	rest = g.rest

	// Tolerate (skip) unknown sections before the terminator: the additive
	// forward-compatibility path.
	for {
		var id byte
		if id, payload, rest, err = splitSection(rest); err != nil {
			return nil, err
		}
		if id == secEnd {
			if len(payload) != 0 {
				return nil, fmt.Errorf("%w: end section with %d payload bytes", ErrSnapshot, len(payload))
			}
			break
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after end section", ErrSnapshot, len(rest))
	}

	if err := w.checkPeople(); err != nil {
		return nil, fmt.Errorf("%w: invariants: %w", ErrSnapshot, err)
	}
	return w, nil
}

// graphSection is the graph section decoded, and the bytes after it.
type graphSection struct {
	frozen *socialgraph.Frozen
	rest   []byte
	err    error
}

// decodeGraphSection frames the graph section at the front of data,
// decodes it, symmetry proof included, and sends the result on out.
func decodeGraphSection(data []byte, out chan<- graphSection) {
	payload, rest, err := nextSection(data, secGraph)
	if err != nil {
		out <- graphSection{err: err}
		return
	}
	frozen, err := socialgraph.DecodeFrozen(payload)
	if err != nil {
		err = fmt.Errorf("%w: graph: %w", ErrSnapshot, err)
	}
	out <- graphSection{frozen: frozen, rest: rest, err: err}
}

// decodeSchools decodes the schools section's n positional records.
func decodeSchools(payload []byte, n int) ([]*School, error) {
	if n > len(payload) { // each school costs ≥1 byte
		return nil, fmt.Errorf("%w: %d schools exceed the %d-byte section", ErrSnapshot, n, len(payload))
	}
	var schools []*School
	if n > 0 {
		schools = make([]*School, n)
	}
	r := reader{b: payload}
	for i := range schools {
		if id := r.uvarint("id"); r.err == nil && id != uint64(i) {
			return nil, fmt.Errorf("%w: school %d has ID %d", ErrSnapshot, i, id)
		}
		s := &School{ID: i, Name: r.str("name"), City: r.str("city")}
		for k := range s.GradYears {
			s.GradYears[k] = int(r.uvarint("grad years"))
		}
		if r.err != nil {
			return nil, fmt.Errorf("%w: school %d %v", ErrSnapshot, i, r.err)
		}
		schools[i] = s
	}
	if left := len(payload) - r.i; left != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in schools section", ErrSnapshot, left)
	}
	return schools, nil
}

// decodePeople decodes the people section's n positional records into one
// slab of Persons. Each string literal is one allocation, shared by every
// later back-reference to it, and each child list is allocated once, at
// its length. The slab is sized from the claimed count, so the count is
// checked first against the records the section can hold.
//
// The literal table starts with room for one literal per person, about
// what generated worlds hold (0.81 per person in a metro world, 1.11 in a
// city world), so it grows once or not at all. Grown from empty it would
// copy itself some thirty times, and with the graph decoding alongside,
// the load's last collection runs before those copies are garbage, so
// they would stay in the heap through the platform build.
func decodePeople(payload []byte, n int) ([]*Person, error) {
	if n > len(payload)/minPersonBytes {
		return nil, fmt.Errorf("%w: %d people exceed the %d-byte section", ErrSnapshot, n, len(payload))
	}
	r := peopleReader{reader: reader{b: payload}, strs: make([]string, 0, n)}
	slab := make([]Person, n)
	people := make([]*Person, n)
	for i := range slab {
		p := &slab[i]
		p.ID = socialgraph.UserID(i)
		p.FirstName = r.interned("first name")
		p.LastName = r.interned("last name")
		p.AliasName = r.interned("alias")
		if p.Gender = namegen.Gender(r.byte("gender")); p.Gender > namegen.Male {
			r.fail("gender", fmt.Errorf("value %d", p.Gender))
		}
		if p.Role = Role(r.byte("role")); p.Role > RoleOutside {
			r.fail("role", fmt.Errorf("value %d", p.Role))
		}
		p.TrueBirth = r.date("birth")
		p.SchoolID = int(r.varint("school"))
		p.GradYear = int(r.varint("grad year"))
		p.CurrentCity = r.interned("current city")
		p.Hometown = r.interned("hometown")
		p.StreetAddress = r.interned("address")
		flags := r.byte("flags")
		p.HasAccount = bit(flags, 0)
		p.LiedAtSignup = bit(flags, 1)
		p.ListsSchool = bit(flags, 2)
		p.ListsGradSchool = bit(flags, 3)
		p.ListsCity = bit(flags, 4)
		p.RegisteredBirth = r.date("registered birth")
		lo := r.byte("privacy")
		p.Privacy = unpackPrivacy(lo, r.byte("privacy"))
		if photos := r.uvarint("photos"); photos > maxPhotos {
			r.fail("photos", fmt.Errorf("count %d", photos))
		} else {
			p.PhotosShared = int(photos)
		}
		p.Sociality = math.Float64frombits(r.uint64LE("sociality"))
		if kids := r.uvarint("children"); kids > uint64(len(payload)-r.i) { // each child costs ≥1 byte
			r.fail("children", fmt.Errorf("count %d exceeds remaining bytes", kids))
		} else if kids > 0 {
			p.ChildIDs = make([]socialgraph.UserID, kids)
			for k := range p.ChildIDs {
				c := r.uvarint("children")
				if c > maxSnapshotPeople {
					r.fail("children", fmt.Errorf("child ID %d out of range", c))
				}
				p.ChildIDs[k] = socialgraph.UserID(c)
			}
		}
		if r.err != nil {
			return nil, fmt.Errorf("%w: person %d %v", ErrSnapshot, i, r.err)
		}
		people[i] = p
	}
	if left := len(payload) - r.i; left != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in people section", ErrSnapshot, left)
	}
	return people, nil
}

// Fingerprint returns the hex SHA-256 of the world's canonical binary
// encoding. Two worlds fingerprint equal iff every person, school and edge
// is identical; the golden determinism tests pin these values per
// (scenario, seed).
func (w *World) Fingerprint() (string, error) {
	h := sha256.New()
	if err := w.WriteBinary(h); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// --- section plumbing ---

// splitSection splits the next section off data. It checks the declared
// payload length against the bytes present and the payload against its
// checksum, and returns the payload as a subslice of data, capped so no
// append can reach past it, and the bytes after the section.
func splitSection(data []byte) (id byte, payload, rest []byte, err error) {
	if len(data) == 0 {
		return 0, nil, nil, fmt.Errorf("%w: section id: %v", ErrSnapshot, io.ErrUnexpectedEOF)
	}
	id = data[0]
	length, k := binary.Uvarint(data[1:])
	if k <= 0 {
		return 0, nil, nil, fmt.Errorf("%w: section %#x length: malformed varint", ErrSnapshot, id)
	}
	body := data[1+k:]
	if length > uint64(len(body)) || uint64(len(body))-length < crc32.Size {
		return 0, nil, nil, fmt.Errorf("%w: section %#x declares %d bytes, %d present with its checksum", ErrSnapshot, id, length, len(body))
	}
	payload = body[:length:length]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(body[length:]) {
		return 0, nil, nil, fmt.Errorf("%w: section %#x checksum mismatch", ErrSnapshot, id)
	}
	return id, payload, body[length+crc32.Size:], nil
}

// nextSection splits the next section off data and requires it to carry the
// given id.
func nextSection(data []byte, want byte) (payload, rest []byte, err error) {
	id, payload, rest, err := splitSection(data)
	if err != nil {
		return nil, nil, err
	}
	if id != want {
		return nil, nil, fmt.Errorf("%w: section %#x where %#x expected", ErrSnapshot, id, want)
	}
	return payload, rest, nil
}

// --- section reader ---

// reader reads one section's bytes by index. Its first failure sticks:
// err names the field that failed, and the read position moves to the end
// of the section, so every later read fails too and returns a zero value.
// A record is read field by field and checked once, at its end.
type reader struct {
	b   []byte
	i   int
	err error
}

func (r *reader) fail(field string, err error) {
	if r.err == nil {
		r.err = fmt.Errorf("%s: %v", field, err)
	}
	r.i = len(r.b)
}

func (r *reader) byte(field string) byte {
	if r.i >= len(r.b) {
		r.fail(field, io.ErrUnexpectedEOF)
		return 0
	}
	c := r.b[r.i]
	r.i++
	return c
}

func (r *reader) uvarint(field string) uint64 {
	v, k := binary.Uvarint(r.b[r.i:])
	switch {
	case k == 0:
		r.fail(field, io.ErrUnexpectedEOF)
	case k < 0:
		r.fail(field, errVarintOverflow)
	default:
		r.i += k
	}
	return v
}

var errVarintOverflow = errors.New("varint overflows 64 bits")

// varint reads a zig-zag varint, as binary.Varint does.
func (r *reader) varint(field string) int64 {
	u := r.uvarint(field)
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (r *reader) uint64LE(field string) uint64 {
	if len(r.b)-r.i < 8 {
		r.fail(field, io.ErrUnexpectedEOF)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.i:])
	r.i += 8
	return v
}

// str reads a length-prefixed string with one allocation.
func (r *reader) str(field string) string {
	n := r.uvarint(field)
	if left := len(r.b) - r.i; n > uint64(left) {
		r.fail(field, fmt.Errorf("string length %d exceeds remaining %d bytes", n, left))
		return ""
	}
	s := string(r.b[r.i : r.i+int(n)])
	r.i += int(n)
	return s
}

func (r *reader) date(field string) sim.Date {
	y := r.varint(field)
	m := r.byte(field)
	d := r.byte(field)
	return sim.Date{Year: int(y), Month: int(m), Day: int(d)}
}

// peopleReader is a reader over the people section, whose strings are
// interned by back-reference (see interner).
type peopleReader struct {
	reader
	strs []string // the literals read so far, in order
}

func (r *peopleReader) interned(field string) string {
	tag := r.uvarint(field)
	if tag == 0 {
		s := r.str(field)
		r.strs = append(r.strs, s)
		return s
	}
	if tag-1 >= uint64(len(r.strs)) {
		r.fail(field, fmt.Errorf("string back-reference %d exceeds table size %d", tag-1, len(r.strs)))
		return ""
	}
	return r.strs[tag-1]
}

// --- primitive codecs ---

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendDate(b []byte, d sim.Date) []byte {
	return append(binary.AppendVarint(b, int64(d.Year)), byte(d.Month), byte(d.Day))
}

func setBit(b *byte, bit uint, v bool) {
	if v {
		*b |= 1 << bit
	}
}

func bit(b byte, n uint) bool { return b&(1<<n) != 0 }

func packPrivacyLow(p PrivacySettings) byte {
	var b byte
	setBit(&b, 0, p.FriendListPublic)
	setBit(&b, 1, p.PublicSearch)
	setBit(&b, 2, p.MessageLink)
	setBit(&b, 3, p.ShowRelationship)
	setBit(&b, 4, p.ShowInterestedIn)
	setBit(&b, 5, p.ShowBirthday)
	setBit(&b, 6, p.ShowHometown)
	setBit(&b, 7, p.ShowPhotos)
	return b
}

func packPrivacyHigh(p PrivacySettings) byte {
	var b byte
	setBit(&b, 0, p.ShowContact)
	setBit(&b, 1, p.ListsNetwork)
	return b
}

func unpackPrivacy(lo, hi byte) PrivacySettings {
	return PrivacySettings{
		FriendListPublic: bit(lo, 0),
		PublicSearch:     bit(lo, 1),
		MessageLink:      bit(lo, 2),
		ShowRelationship: bit(lo, 3),
		ShowInterestedIn: bit(lo, 4),
		ShowBirthday:     bit(lo, 5),
		ShowHometown:     bit(lo, 6),
		ShowPhotos:       bit(lo, 7),
		ShowContact:      bit(hi, 0),
		ListsNetwork:     bit(hi, 1),
	}
}

// --- string interning ---

// interner assigns each distinct string an index at its first occurrence.
// Encoding: tag 0 = literal follows (and joins the table); tag k>0 = the
// (k-1)th literal seen so far. peopleReader.interned decodes it.
type interner map[string]uint64

func (in interner) append(b []byte, s string) []byte {
	if k, ok := in[s]; ok {
		return binary.AppendUvarint(b, k+1)
	}
	in[s] = uint64(len(in))
	return appendString(append(b, 0), s)
}
