package worldgen

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

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
)

// WriteBinary encodes the world in snapshot format v2. Sections are staged
// in memory one at a time (the working set is one section, not the whole
// file) and streamed out with their checksums.
func (w *World) WriteBinary(out io.Writer) error {
	bw := bufio.NewWriterSize(out, 1<<16)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return err
	}
	if err := writeUvarint(bw, binaryVersion); err != nil {
		return err
	}
	var buf bytes.Buffer

	// meta
	writeUvarint(&buf, w.Seed)
	writeDate(&buf, w.Now)
	writeUvarint(&buf, uint64(len(w.Schools)))
	writeUvarint(&buf, uint64(len(w.People)))
	if err := writeSection(bw, secMeta, &buf); err != nil {
		return err
	}

	// schools
	for _, s := range w.Schools {
		writeUvarint(&buf, uint64(s.ID))
		writeString(&buf, s.Name)
		writeString(&buf, s.City)
		for _, y := range s.GradYears {
			writeUvarint(&buf, uint64(y))
		}
	}
	if err := writeSection(bw, secSchools, &buf); err != nil {
		return err
	}

	// people
	in := newInterner()
	for i, p := range w.People {
		if p == nil || int(p.ID) != i {
			return fmt.Errorf("worldgen: person at index %d not positional", i)
		}
		in.write(&buf, p.FirstName)
		in.write(&buf, p.LastName)
		in.write(&buf, p.AliasName)
		buf.WriteByte(byte(p.Gender))
		buf.WriteByte(byte(p.Role))
		writeDate(&buf, p.TrueBirth)
		writeVarint(&buf, int64(p.SchoolID))
		writeVarint(&buf, int64(p.GradYear))
		in.write(&buf, p.CurrentCity)
		in.write(&buf, p.Hometown)
		in.write(&buf, p.StreetAddress)
		var flags byte
		setBit(&flags, 0, p.HasAccount)
		setBit(&flags, 1, p.LiedAtSignup)
		setBit(&flags, 2, p.ListsSchool)
		setBit(&flags, 3, p.ListsGradSchool)
		setBit(&flags, 4, p.ListsCity)
		buf.WriteByte(flags)
		writeDate(&buf, p.RegisteredBirth)
		buf.WriteByte(packPrivacyLow(p.Privacy))
		buf.WriteByte(packPrivacyHigh(p.Privacy))
		writeUvarint(&buf, uint64(p.PhotosShared))
		var fb [8]byte
		binary.LittleEndian.PutUint64(fb[:], math.Float64bits(p.Sociality))
		buf.Write(fb[:])
		writeUvarint(&buf, uint64(len(p.ChildIDs)))
		for _, c := range p.ChildIDs {
			writeUvarint(&buf, uint64(c))
		}
	}
	if err := writeSection(bw, secPeople, &buf); err != nil {
		return err
	}

	// graph
	if err := w.Frozen().WriteBinary(&buf); err != nil {
		return err
	}
	if err := writeSection(bw, secGraph, &buf); err != nil {
		return err
	}

	if err := writeSection(bw, secEnd, &buf); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary decodes a world written by WriteBinary and re-validates its
// invariants. It reads all of in and decodes the bytes as ReadSnapshotFile
// does; the CSR snapshot is decoded directly, not rebuilt.
func ReadBinary(in io.Reader) (*World, error) {
	data, err := io.ReadAll(in)
	if err != nil {
		return nil, fmt.Errorf("worldgen: reading snapshot: %w", err)
	}
	return decodeBinary(data)
}

// decodeBinary decodes a complete binary snapshot. Each section is a
// checksummed subslice of data, and every decoded value is a copy, so data
// can be freed once this returns.
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
	var nPeople int

	// meta
	payload, rest, err := nextSection(rest, secMeta)
	if err != nil {
		return nil, err
	}
	r := bytes.NewReader(payload)
	if w.Seed, err = binary.ReadUvarint(r); err != nil {
		return nil, fmt.Errorf("%w: meta seed: %v", ErrSnapshot, err)
	}
	if w.Now, err = readDate(r); err != nil {
		return nil, fmt.Errorf("%w: meta date: %v", ErrSnapshot, err)
	}
	nSchools64, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("%w: school count: %v", ErrSnapshot, err)
	}
	nPeople64, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("%w: people count: %v", ErrSnapshot, err)
	}
	if nPeople64 > maxSnapshotPeople || nSchools64 > nPeople64 {
		return nil, fmt.Errorf("%w: counts %d schools / %d people out of range", ErrSnapshot, nSchools64, nPeople64)
	}
	nPeople = int(nPeople64)

	// schools
	if payload, rest, err = nextSection(rest, secSchools); err != nil {
		return nil, err
	}
	r = bytes.NewReader(payload)
	for i := 0; i < int(nSchools64); i++ {
		s := &School{}
		id, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("%w: school %d: %v", ErrSnapshot, i, err)
		}
		if int(id) != i {
			return nil, fmt.Errorf("%w: school %d has ID %d", ErrSnapshot, i, id)
		}
		s.ID = i
		if s.Name, err = readString(r); err != nil {
			return nil, fmt.Errorf("%w: school %d name: %v", ErrSnapshot, i, err)
		}
		if s.City, err = readString(r); err != nil {
			return nil, fmt.Errorf("%w: school %d city: %v", ErrSnapshot, i, err)
		}
		for k := range s.GradYears {
			y, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, fmt.Errorf("%w: school %d grad years: %v", ErrSnapshot, i, err)
			}
			s.GradYears[k] = int(y)
		}
		w.Schools = append(w.Schools, s)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in schools section", ErrSnapshot, r.Len())
	}

	// people
	if payload, rest, err = nextSection(rest, secPeople); err != nil {
		return nil, err
	}
	if nPeople > len(payload) { // each person costs ≥1 byte
		return nil, fmt.Errorf("%w: %d people exceed the %d-byte section", ErrSnapshot, nPeople, len(payload))
	}
	r = bytes.NewReader(payload)
	table := newStringTable()
	w.People = make([]*Person, 0, nPeople)
	for i := 0; i < nPeople; i++ {
		p, err := readPerson(r, table, i)
		if err != nil {
			return nil, err
		}
		w.People = append(w.People, p)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in people section", ErrSnapshot, r.Len())
	}

	// graph
	if payload, rest, err = nextSection(rest, secGraph); err != nil {
		return nil, err
	}
	frozen, err := socialgraph.DecodeFrozen(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: graph: %w", ErrSnapshot, err)
	}
	w.SetFrozen(frozen)

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

	if err := w.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("%w: invariants: %w", ErrSnapshot, err)
	}
	return w, nil
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

func writeSection(bw *bufio.Writer, id byte, payload *bytes.Buffer) error {
	if err := bw.WriteByte(id); err != nil {
		return err
	}
	if err := writeUvarint(bw, uint64(payload.Len())); err != nil {
		return err
	}
	sum := crc32.ChecksumIEEE(payload.Bytes())
	if _, err := bw.Write(payload.Bytes()); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], sum)
	if _, err := bw.Write(crc[:]); err != nil {
		return err
	}
	payload.Reset()
	return nil
}

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

// --- primitive codecs ---

func writeUvarint(w io.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func writeVarint(w io.Writer, v int64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func writeString(w *bytes.Buffer, s string) {
	writeUvarint(w, uint64(len(s)))
	w.WriteString(s)
}

func readString(r *bytes.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > uint64(r.Len()) {
		return "", fmt.Errorf("string length %d exceeds remaining %d bytes", n, r.Len())
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

func writeDate(w *bytes.Buffer, d sim.Date) {
	writeVarint(w, int64(d.Year))
	w.WriteByte(byte(d.Month))
	w.WriteByte(byte(d.Day))
}

func readDate(r *bytes.Reader) (sim.Date, error) {
	y, err := binary.ReadVarint(r)
	if err != nil {
		return sim.Date{}, err
	}
	m, err := r.ReadByte()
	if err != nil {
		return sim.Date{}, err
	}
	d, err := r.ReadByte()
	if err != nil {
		return sim.Date{}, err
	}
	return sim.Date{Year: int(y), Month: int(m), Day: int(d)}, nil
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
// (k-1)th literal seen so far.
type interner struct {
	idx map[string]uint64
}

func newInterner() *interner { return &interner{idx: make(map[string]uint64)} }

func (in *interner) write(w *bytes.Buffer, s string) {
	if k, ok := in.idx[s]; ok {
		writeUvarint(w, k+1)
		return
	}
	in.idx[s] = uint64(len(in.idx))
	writeUvarint(w, 0)
	writeString(w, s)
}

type stringTable struct {
	strs []string
}

func newStringTable() *stringTable { return &stringTable{} }

func (st *stringTable) read(r *bytes.Reader) (string, error) {
	tag, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if tag == 0 {
		s, err := readString(r)
		if err != nil {
			return "", err
		}
		st.strs = append(st.strs, s)
		return s, nil
	}
	if tag-1 >= uint64(len(st.strs)) {
		return "", fmt.Errorf("string back-reference %d exceeds table size %d", tag-1, len(st.strs))
	}
	return st.strs[tag-1], nil
}

// --- person codec ---

func readPerson(r *bytes.Reader, table *stringTable, i int) (*Person, error) {
	fail := func(field string, err error) (*Person, error) {
		return nil, fmt.Errorf("%w: person %d %s: %v", ErrSnapshot, i, field, err)
	}
	p := &Person{ID: socialgraph.UserID(i)}
	var err error
	if p.FirstName, err = table.read(r); err != nil {
		return fail("first name", err)
	}
	if p.LastName, err = table.read(r); err != nil {
		return fail("last name", err)
	}
	if p.AliasName, err = table.read(r); err != nil {
		return fail("alias", err)
	}
	g, err := r.ReadByte()
	if err != nil {
		return fail("gender", err)
	}
	if g > 1 {
		return fail("gender", fmt.Errorf("value %d", g))
	}
	p.Gender = namegen.Gender(g)
	role, err := r.ReadByte()
	if err != nil {
		return fail("role", err)
	}
	if Role(role) > RoleOutside {
		return fail("role", fmt.Errorf("value %d", role))
	}
	p.Role = Role(role)
	if p.TrueBirth, err = readDate(r); err != nil {
		return fail("birth", err)
	}
	sid, err := binary.ReadVarint(r)
	if err != nil {
		return fail("school", err)
	}
	p.SchoolID = int(sid)
	gy, err := binary.ReadVarint(r)
	if err != nil {
		return fail("grad year", err)
	}
	p.GradYear = int(gy)
	if p.CurrentCity, err = table.read(r); err != nil {
		return fail("current city", err)
	}
	if p.Hometown, err = table.read(r); err != nil {
		return fail("hometown", err)
	}
	if p.StreetAddress, err = table.read(r); err != nil {
		return fail("address", err)
	}
	flags, err := r.ReadByte()
	if err != nil {
		return fail("flags", err)
	}
	p.HasAccount = bit(flags, 0)
	p.LiedAtSignup = bit(flags, 1)
	p.ListsSchool = bit(flags, 2)
	p.ListsGradSchool = bit(flags, 3)
	p.ListsCity = bit(flags, 4)
	if p.RegisteredBirth, err = readDate(r); err != nil {
		return fail("registered birth", err)
	}
	lo, err := r.ReadByte()
	if err != nil {
		return fail("privacy", err)
	}
	hi, err := r.ReadByte()
	if err != nil {
		return fail("privacy", err)
	}
	p.Privacy = unpackPrivacy(lo, hi)
	photos, err := binary.ReadUvarint(r)
	if err != nil {
		return fail("photos", err)
	}
	if photos > 1<<20 {
		return fail("photos", fmt.Errorf("count %d", photos))
	}
	p.PhotosShared = int(photos)
	var fb [8]byte
	if _, err := io.ReadFull(r, fb[:]); err != nil {
		return fail("sociality", err)
	}
	p.Sociality = math.Float64frombits(binary.LittleEndian.Uint64(fb[:]))
	nKids, err := binary.ReadUvarint(r)
	if err != nil {
		return fail("children", err)
	}
	if nKids > uint64(r.Len()) { // each child costs ≥1 byte
		return fail("children", fmt.Errorf("count %d exceeds remaining bytes", nKids))
	}
	for k := uint64(0); k < nKids; k++ {
		c, err := binary.ReadUvarint(r)
		if err != nil {
			return fail("children", err)
		}
		if c > maxSnapshotPeople {
			return fail("children", fmt.Errorf("child ID %d out of range", c))
		}
		p.ChildIDs = append(p.ChildIDs, socialgraph.UserID(c))
	}
	return p, nil
}
