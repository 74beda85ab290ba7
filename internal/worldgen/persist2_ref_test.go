package worldgen

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"hsprofiler/internal/namegen"
	"hsprofiler/internal/sim"
	"hsprofiler/internal/socialgraph"
)

// decodePeopleReference is the plain people-section decoder
// FuzzPeopleSection holds decodePeople to: a bytes.Reader read field by
// field with an error check after each, one allocation per Person and a
// string table of its own.
func decodePeopleReference(payload []byte, n int) ([]*Person, error) {
	if n > len(payload) { // each person costs ≥1 byte
		return nil, fmt.Errorf("%w: %d people exceed the %d-byte section", ErrSnapshot, n, len(payload))
	}
	r := bytes.NewReader(payload)
	table := newRefStringTable()
	people := make([]*Person, 0, n)
	for i := 0; i < n; i++ {
		p, err := refReadPerson(r, table, i)
		if err != nil {
			return nil, err
		}
		people = append(people, p)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in people section", ErrSnapshot, r.Len())
	}
	return people, nil
}

func refReadString(r *bytes.Reader) (string, error) {
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

func refReadDate(r *bytes.Reader) (sim.Date, error) {
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

type refStringTable struct {
	strs []string
}

func newRefStringTable() *refStringTable { return &refStringTable{} }

func (st *refStringTable) read(r *bytes.Reader) (string, error) {
	tag, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if tag == 0 {
		s, err := refReadString(r)
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

func refReadPerson(r *bytes.Reader, table *refStringTable, i int) (*Person, error) {
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
	if p.TrueBirth, err = refReadDate(r); err != nil {
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
	if p.RegisteredBirth, err = refReadDate(r); err != nil {
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

// writeBinaryRef is the plain snapshot writer WriteBinary is held to: it
// stages one section at a time in a bytes.Buffer, writes every varint
// through an io.Writer, and streams the sections out through a
// bufio.Writer. Its graph section is Frozen.AppendBinary's bytes, which
// socialgraph's tests hold to their own plain encoder, appendFrozen.
func writeBinaryRef(w *World, out io.Writer) error {
	bw := bufio.NewWriterSize(out, 1<<16)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return err
	}
	if err := refWriteUvarint(bw, binaryVersion); err != nil {
		return err
	}
	var buf bytes.Buffer

	// meta
	refWriteUvarint(&buf, w.Seed)
	refWriteDate(&buf, w.Now)
	refWriteUvarint(&buf, uint64(len(w.Schools)))
	refWriteUvarint(&buf, uint64(len(w.People)))
	if err := refWriteSection(bw, secMeta, &buf); err != nil {
		return err
	}

	// schools
	for _, s := range w.Schools {
		refWriteUvarint(&buf, uint64(s.ID))
		refWriteString(&buf, s.Name)
		refWriteString(&buf, s.City)
		for _, y := range s.GradYears {
			refWriteUvarint(&buf, uint64(y))
		}
	}
	if err := refWriteSection(bw, secSchools, &buf); err != nil {
		return err
	}

	// people
	if err := writePeopleRef(&buf, w.People); err != nil {
		return err
	}
	if err := refWriteSection(bw, secPeople, &buf); err != nil {
		return err
	}

	// graph
	buf.Write(w.Frozen().AppendBinary(nil))
	if err := refWriteSection(bw, secGraph, &buf); err != nil {
		return err
	}

	if err := refWriteSection(bw, secEnd, &buf); err != nil {
		return err
	}
	return bw.Flush()
}

// writePeopleRef encodes the people section as appendPeople does, one
// field at a time into a bytes.Buffer.
func writePeopleRef(buf *bytes.Buffer, people []*Person) error {
	in := &refInterner{idx: make(map[string]uint64)}
	for i, p := range people {
		if p == nil || int(p.ID) != i {
			return fmt.Errorf("worldgen: person at index %d not positional", i)
		}
		in.write(buf, p.FirstName)
		in.write(buf, p.LastName)
		in.write(buf, p.AliasName)
		buf.WriteByte(byte(p.Gender))
		buf.WriteByte(byte(p.Role))
		refWriteDate(buf, p.TrueBirth)
		refWriteVarint(buf, int64(p.SchoolID))
		refWriteVarint(buf, int64(p.GradYear))
		in.write(buf, p.CurrentCity)
		in.write(buf, p.Hometown)
		in.write(buf, p.StreetAddress)
		var flags byte
		setBit(&flags, 0, p.HasAccount)
		setBit(&flags, 1, p.LiedAtSignup)
		setBit(&flags, 2, p.ListsSchool)
		setBit(&flags, 3, p.ListsGradSchool)
		setBit(&flags, 4, p.ListsCity)
		buf.WriteByte(flags)
		refWriteDate(buf, p.RegisteredBirth)
		buf.WriteByte(packPrivacyLow(p.Privacy))
		buf.WriteByte(packPrivacyHigh(p.Privacy))
		refWriteUvarint(buf, uint64(p.PhotosShared))
		var fb [8]byte
		binary.LittleEndian.PutUint64(fb[:], math.Float64bits(p.Sociality))
		buf.Write(fb[:])
		refWriteUvarint(buf, uint64(len(p.ChildIDs)))
		for _, c := range p.ChildIDs {
			refWriteUvarint(buf, uint64(c))
		}
	}
	return nil
}

func refWriteSection(bw *bufio.Writer, id byte, payload *bytes.Buffer) error {
	if err := bw.WriteByte(id); err != nil {
		return err
	}
	if err := refWriteUvarint(bw, uint64(payload.Len())); err != nil {
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

func refWriteUvarint(w io.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func refWriteVarint(w io.Writer, v int64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func refWriteString(w *bytes.Buffer, s string) {
	refWriteUvarint(w, uint64(len(s)))
	w.WriteString(s)
}

func refWriteDate(w *bytes.Buffer, d sim.Date) {
	refWriteVarint(w, int64(d.Year))
	w.WriteByte(byte(d.Month))
	w.WriteByte(byte(d.Day))
}

// refInterner is the reference writer's string table: tag 0 and a literal
// at a string's first occurrence, then its index plus one.
type refInterner struct {
	idx map[string]uint64
}

func (in *refInterner) write(w *bytes.Buffer, s string) {
	if k, ok := in.idx[s]; ok {
		refWriteUvarint(w, k+1)
		return
	}
	in.idx[s] = uint64(len(in.idx))
	refWriteUvarint(w, 0)
	refWriteString(w, s)
}
