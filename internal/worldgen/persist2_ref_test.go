package worldgen

import (
	"bytes"
	"encoding/binary"
	"fmt"
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
