package worldgen

import (
	"fmt"
	"math"
	"sync/atomic"

	"hsprofiler/internal/namegen"
	"hsprofiler/internal/sim"
	"hsprofiler/internal/socialgraph"
)

// School is one high school in the world. All schools are four-year schools,
// like the paper's three test schools.
type School struct {
	ID   int
	Name string
	City string
	// GradYears are the four graduation classes currently enrolled, ordered
	// year 4 (seniors, graduating soonest) first is NOT assumed anywhere;
	// GradYears[i] is the class of students in school year 4-i. For a
	// collection date in spring 2012 these are 2012, 2013, 2014, 2015.
	GradYears [4]int
}

// CohortIndex returns the 0-based school-year index (0 = first listed
// graduating class) for gradYear, or -1 if gradYear is not a current class.
func (s *School) CohortIndex(gradYear int) int {
	for i, y := range s.GradYears {
		if y == gradYear {
			return i
		}
	}
	return -1
}

// World is a complete synthetic society: people, schools, friendships and
// the collection date. A world is a pure function of (config, seed); the
// generator's self-check enforces structural invariants at build time.
type World struct {
	Seed    uint64
	Now     sim.Date
	Schools []*School
	People  []*Person

	// frozen is the friendship graph. Every constructor installs it before
	// returning, and Evolve swaps in the next year's snapshot.
	frozen atomic.Pointer[socialgraph.Frozen]
}

// SetFrozen installs a CSR snapshot as the world's friendship graph. The
// world holds the snapshot it serves: SetFrozen retains f and releases the
// snapshot it replaces (see socialgraph.Frozen).
func (w *World) SetFrozen(f *socialgraph.Frozen) {
	f.Retain()
	if old := w.frozen.Swap(f); old != nil {
		old.Release()
	}
}

// Frozen returns the immutable CSR snapshot of the friendship graph. All
// serving and analysis paths read it; it is lock-free and allocation-free
// for concurrent readers. Evolve replaces the world's snapshot with the
// next one and releases the world's hold on the old one; clones share the
// snapshot and hold it too. Once no world, clone or serving epoch holds a
// replaced snapshot, a later evolution step of the same Evolver may write
// a newer snapshot into its arrays, so a caller that reads a snapshot
// across evolution steps must hold it with Retain until it is done.
func (w *World) Frozen() *socialgraph.Frozen {
	return w.frozen.Load()
}

// buildGraph assembles the friendship graph from edge lists with a
// FrozenBuilder over the ID space [0, len(People)), every account holder a
// user, installs it and checks the world's invariants. Each shard must be
// normalized (see socialgraph.NormalizeEdges) and no two may share an edge;
// workers parallelizes the builder's row sort.
func (w *World) buildGraph(workers int, shards ...[]socialgraph.Edge) error {
	fb := socialgraph.NewFrozenBuilder(len(w.People))
	for _, p := range w.People {
		if p.HasAccount {
			if err := fb.AddUser(p.ID); err != nil {
				return err
			}
		}
	}
	for _, shard := range shards {
		if err := fb.AddShard(shard); err != nil {
			return err
		}
	}
	frozen, err := fb.Build(workers)
	if err != nil {
		return err
	}
	w.SetFrozen(frozen)
	return w.CheckInvariants()
}

// Person returns the person with the given ID, or nil if out of range.
func (w *World) Person(id socialgraph.UserID) *Person {
	if id < 0 || int(id) >= len(w.People) {
		return nil
	}
	return w.People[id]
}

// School returns the school with the given ID, or nil.
func (w *World) School(id int) *School {
	if id < 0 || id >= len(w.Schools) {
		return nil
	}
	return w.Schools[id]
}

// Roster returns the ground-truth student body of a school: every person
// (with or without an OSN account) currently attending it. This is the
// confidential student list the paper obtained for HS1; the evaluation layer
// treats it as oracle data unavailable to the attacker.
func (w *World) Roster(schoolID int) []*Person {
	var out []*Person
	for _, p := range w.People {
		if p.Role == RoleStudent && p.SchoolID == schoolID {
			out = append(out, p)
		}
	}
	return out
}

// RosterOnOSN returns the subset of the roster that has OSN accounts — the
// paper's set M (e.g. 325 of HS1's 362 students).
func (w *World) RosterOnOSN(schoolID int) []*Person {
	var out []*Person
	for _, p := range w.Roster(schoolID) {
		if p.HasAccount {
			out = append(out, p)
		}
	}
	return out
}

// CheckInvariants validates cross-cutting structural properties of the
// world: the graph's own invariants, then the people's (checkPeople). The
// generators and the JSON reader call it before returning a world; the
// binary reader calls checkPeople alone, because socialgraph.DecodeFrozen
// proves the graph's invariants as it decodes it.
func (w *World) CheckInvariants() error {
	if err := w.Frozen().CheckInvariants(); err != nil {
		return err
	}
	return w.checkPeople()
}

// checkPeople validates the schools and the person records against the
// graph. First come the checks the binary reader makes as it decodes
// (checkSchools, checkRecord), so that a world one reader accepts survives
// the other's format. Then: a graph whose ID space fits the people and
// whose users are exactly the account holders, a school reference that is
// -1 or a real school for everyone and a real school for students, alumni,
// former students and teachers, and coherent ages, registrations and
// children.
func (w *World) checkPeople() error {
	if err := w.checkSchools(); err != nil {
		return err
	}
	frozen := w.Frozen()
	if frozen.NumIDs() > len(w.People) {
		return fmt.Errorf("worldgen: graph spans %d IDs, world has %d people", frozen.NumIDs(), len(w.People))
	}
	for i, p := range w.People {
		if err := checkRecord(i, p); err != nil {
			return err
		}
		if p.HasAccount != frozen.HasUser(p.ID) {
			return fmt.Errorf("worldgen: person %d account flag disagrees with graph", p.ID)
		}
		schooled := p.Role == RoleStudent || p.Role == RoleAlumnus || p.Role == RoleFormer || p.Role == RoleTeacher
		if (schooled || p.SchoolID != -1) && w.School(p.SchoolID) == nil {
			return fmt.Errorf("worldgen: %s %d references missing school %d", p.Role, p.ID, p.SchoolID)
		}
		if p.Role == RoleStudent {
			s := w.School(p.SchoolID)
			if s.CohortIndex(p.GradYear) < 0 {
				return fmt.Errorf("worldgen: student %d grad year %d not a current class of school %d", p.ID, p.GradYear, p.SchoolID)
			}
			if !p.IsMinorAt(w.Now) && p.TrueBirth.AgeAt(w.Now) > 19 {
				return fmt.Errorf("worldgen: student %d is %d years old", p.ID, p.TrueBirth.AgeAt(w.Now))
			}
		}
		if p.HasAccount {
			// Lying can only overstate age: the OSN may believe a user is
			// older than they are, never younger. This is the direction
			// COPPA circumvention pushes, and the methodology depends on it.
			if p.TrueBirth.Before(p.RegisteredBirth) {
				return fmt.Errorf("worldgen: person %d registered younger than true age", p.ID)
			}
			if !p.LiedAtSignup && p.RegisteredBirth != p.TrueBirth {
				return fmt.Errorf("worldgen: person %d did not lie but birth dates differ", p.ID)
			}
			if p.LiedAtSignup && p.RegisteredBirth == p.TrueBirth {
				return fmt.Errorf("worldgen: person %d lied but birth dates equal", p.ID)
			}
		}
		for _, c := range p.ChildIDs {
			child := w.Person(c)
			if child == nil {
				return fmt.Errorf("worldgen: parent %d references missing child %d", p.ID, c)
			}
		}
	}
	return nil
}

// checkSchools makes the binary reader's checks of the collection date
// and the school table: a month and day that each fit a byte, no more
// schools than people, and every school present at its own index.
func (w *World) checkSchools() error {
	if !byteDate(w.Now) {
		return fmt.Errorf("worldgen: collection date %v out of range", w.Now)
	}
	if len(w.Schools) > len(w.People) {
		return fmt.Errorf("worldgen: %d schools for %d people", len(w.Schools), len(w.People))
	}
	for i, s := range w.Schools {
		if s == nil {
			return fmt.Errorf("worldgen: school %d is nil", i)
		}
		if s.ID != i {
			return fmt.Errorf("worldgen: school %d has ID %d", i, s.ID)
		}
	}
	return nil
}

// maxPhotos bounds a person's shared-photo count.
const maxPhotos = 1 << 20

// checkRecord makes the binary reader's checks of person i's record: the
// person at their own index, role and gender in range, a photo count from
// 0 to maxPhotos, and birth dates whose month and day each fit a byte.
func checkRecord(i int, p *Person) error {
	switch {
	case int(p.ID) != i:
		return fmt.Errorf("worldgen: person at index %d has ID %d", i, p.ID)
	case p.Role < RoleStudent || p.Role > RoleOutside:
		return fmt.Errorf("worldgen: person %d has role %d", i, p.Role)
	case p.Gender < namegen.Female || p.Gender > namegen.Male:
		return fmt.Errorf("worldgen: person %d has gender %d", i, p.Gender)
	case p.PhotosShared < 0 || p.PhotosShared > maxPhotos:
		return fmt.Errorf("worldgen: person %d shares %d photos", i, p.PhotosShared)
	case !byteDate(p.TrueBirth) || !byteDate(p.RegisteredBirth):
		return fmt.Errorf("worldgen: person %d has a birth date out of range", i)
	}
	return nil
}

// byteDate reports whether d's month and day each fit a byte, as the
// binary format stores them.
func byteDate(d sim.Date) bool {
	return uint(d.Month) <= math.MaxUint8 && uint(d.Day) <= math.MaxUint8
}

// Clone returns a copy of the world with independently mutable Person and
// School records but the same immutable friendship graph snapshot, which
// the clone holds as the original does. The §7 without-COPPA
// counterfactual re-registers every account truthfully on such a clone
// without touching the original, and evolving a clone advances its own
// schools' classes, not the original's.
func (w *World) Clone() *World {
	c := &World{Seed: w.Seed, Now: w.Now}
	c.SetFrozen(w.Frozen())
	c.Schools = make([]*School, len(w.Schools))
	for i, s := range w.Schools {
		cs := *s
		c.Schools[i] = &cs
	}
	c.People = make([]*Person, len(w.People))
	for i, p := range w.People {
		cp := *p
		c.People[i] = &cp
	}
	return c
}

// Stats summarizes a school's population for calibration reports and tests.
type Stats struct {
	Students           int
	StudentsOnOSN      int
	RegisteredAdults   int // students on OSN registered as adults
	MinorsRegAsAdults  int // §6.2 population, school years 1-3 only
	MinimalProfiles    int // students whose public profile is minimal (registered minors)
	PublicFriendLists  int // students on OSN with stranger-visible friend lists
	ListSchoolPublicly int // students on OSN whose profile names school+grad year
	Alumni             int
	FormerStudents     int
	AvgStudentDegree   float64
	AvgInSchoolDegree  float64
	CohortSizes        [4]int
}

// SchoolStats computes calibration statistics for one school.
func (w *World) SchoolStats(schoolID int) Stats {
	var st Stats
	s := w.School(schoolID)
	frozen := w.Frozen()
	var degSum, inSum int
	inSchool := make(map[socialgraph.UserID]bool)
	for _, p := range w.People {
		if p.SchoolID != schoolID {
			continue
		}
		switch p.Role {
		case RoleAlumnus:
			st.Alumni++
		case RoleFormer:
			st.FormerStudents++
		case RoleStudent:
			inSchool[p.ID] = true
		}
	}
	for _, p := range w.Roster(schoolID) {
		st.Students++
		if ci := s.CohortIndex(p.GradYear); ci >= 0 {
			st.CohortSizes[ci]++
		}
		if !p.HasAccount {
			continue
		}
		st.StudentsOnOSN++
		regMinor := p.RegisteredMinorAt(w.Now)
		if !regMinor {
			st.RegisteredAdults++
			if p.Privacy.FriendListPublic {
				st.PublicFriendLists++
			}
			if p.ListsSchool {
				st.ListSchoolPublicly++
			}
		} else {
			st.MinimalProfiles++
		}
		if p.MinorRegisteredAsAdultAt(w.Now) && s.CohortIndex(p.GradYear) >= 1 {
			// School years 1-3 = cohort indexes 1..3 when GradYears[0] is
			// the senior class.
			st.MinorsRegAsAdults++
		}
		deg := frozen.Degree(p.ID)
		degSum += deg
		in := 0
		frozen.ForEachFriend(p.ID, func(f socialgraph.UserID) {
			if inSchool[f] {
				in++
			}
		})
		inSum += in
	}
	if st.StudentsOnOSN > 0 {
		st.AvgStudentDegree = float64(degSum) / float64(st.StudentsOnOSN)
		st.AvgInSchoolDegree = float64(inSum) / float64(st.StudentsOnOSN)
	}
	return st
}
