package worldgen

import (
	"fmt"
	"sort"

	"hsprofiler/internal/namegen"
	"hsprofiler/internal/sim"
	"hsprofiler/internal/socialgraph"
)

// Generate builds a complete world from cfg and seed. The same (cfg, seed)
// pair always yields the identical world. Construction ends with an
// invariant check; an error indicates a bug in the generator, not bad input.
func Generate(cfg Config, seed uint64) (*World, error) {
	if len(cfg.Schools) == 0 {
		return nil, fmt.Errorf("worldgen: config has no schools")
	}
	b := &builder{
		cfg: cfg,
		rng: sim.New(seed),
		w: &World{
			Seed: seed,
			Now:  cfg.Now,
		},
	}
	b.ng = namegen.New(b.rng)
	b.genCities()
	b.genSchools()
	for i := range cfg.Schools {
		b.genStudents(i)
		b.genAlumni(i)
		b.genFormer(i)
		b.genTeachers(i)
	}
	b.genParents()
	b.genOutside()
	b.assignAddresses()
	b.register()
	b.assignPrivacy()
	b.genFriendships()
	if err := b.w.buildGraph(1, socialgraph.NormalizeEdges(b.edges)); err != nil {
		return nil, err
	}
	return b.w, nil
}

type builder struct {
	cfg Config
	rng *sim.Rand
	ng  *namegen.Generator
	w   *World

	homeCity    string
	otherCities []string

	// population bookkeeping filled as people are created
	studentsBySchool [][]socialgraph.UserID // account holders only, filled in register()
	allStudents      []socialgraph.UserID   // all students incl. no-account
	alumniBySchool   [][]socialgraph.UserID
	formerBySchool   [][]socialgraph.UserID
	teachersBySchool [][]socialgraph.UserID
	parents          []socialgraph.UserID
	poolTeens        []socialgraph.UserID
	poolAdults       []socialgraph.UserID

	// edges collects friendships as they are drawn, repeats included;
	// Generate normalizes them once at the end. Nothing reads the graph
	// while it is being generated.
	edges []socialgraph.Edge
}

// befriend records a friendship between two account holders.
func (b *builder) befriend(u, v socialgraph.UserID) {
	b.edges = append(b.edges, socialgraph.Edge{A: u, B: v})
}

func (b *builder) genCities() {
	b.homeCity = b.ng.City()
	for i := 0; i < 10; i++ {
		c := b.ng.City()
		if c != b.homeCity {
			b.otherCities = append(b.otherCities, c)
		}
	}
	if len(b.otherCities) == 0 { // pathological name collision; force one
		b.otherCities = []string{b.homeCity + " Heights"}
	}
}

func (b *builder) otherCity(rng *sim.Rand) string {
	return b.otherCities[rng.Intn(len(b.otherCities))]
}

func (b *builder) genSchools() {
	n := len(b.cfg.Schools)
	b.studentsBySchool = make([][]socialgraph.UserID, n)
	b.alumniBySchool = make([][]socialgraph.UserID, n)
	b.formerBySchool = make([][]socialgraph.UserID, n)
	b.teachersBySchool = make([][]socialgraph.UserID, n)
	for i := range b.cfg.Schools {
		s := &School{
			ID:   i,
			Name: b.ng.School(b.homeCity),
			City: b.homeCity,
		}
		for k := 0; k < 4; k++ {
			s.GradYears[k] = b.cfg.SeniorClassYear + k
		}
		b.w.Schools = append(b.w.Schools, s)
	}
}

// newPerson appends a person and returns it. ID equals slice index.
func (b *builder) newPerson(gender namegen.Gender, role Role) *Person {
	first, last := b.ng.Person(gender)
	p := &Person{
		ID:        socialgraph.UserID(len(b.w.People)),
		FirstName: first,
		LastName:  last,
		Gender:    gender,
		Role:      role,
		SchoolID:  -1,
		Sociality: 1,
	}
	b.w.People = append(b.w.People, p)
	return p
}

// birthForGradYear draws a birth date for a student in the class of
// gradYear: US school-year cutoffs put the class of Y mostly between
// September of Y-19 and August of Y-18.
func (b *builder) birthForGradYear(rng *sim.Rand, gradYear int) sim.Date {
	day := rng.IntBetween(1, 28)
	offset := rng.IntBetween(0, 11) // months since the September cutoff
	month := 9 + offset
	year := gradYear - 19
	if month > 12 {
		month -= 12
		year++
	}
	return sim.Date{Year: year, Month: month, Day: day}
}

// drawSociality samples the friendship-propensity multiplier: a mixture
// with mean ~1 whose low tail produces the loners the attack cannot rank.
func drawSociality(rng *sim.Rand) float64 {
	switch rng.WeightedChoice([]float64{0.10, 0.20, 0.45, 0.25}) {
	case 0:
		return 0.25
	case 1:
		return 0.6
	case 2:
		return 1.0
	default:
		return 1.5
	}
}

func (b *builder) genStudents(si int) {
	sc := b.cfg.Schools[si]
	rng := b.rng.Stream(fmt.Sprintf("students/%d", si))
	school := b.w.Schools[si]
	// Split the student body across the four classes with mild jitter.
	base := sc.Students / 4
	sizes := [4]int{base, base, base, sc.Students - 3*base}
	for k := 0; k < 3; k++ {
		j := rng.IntBetween(-base/12-1, base/12+1)
		sizes[k] += j
		sizes[3] -= j
	}
	for cohort, y := range school.GradYears {
		for n := 0; n < sizes[cohort]; n++ {
			p := b.newPerson(namegen.Gender(rng.Intn(2)), RoleStudent)
			p.SchoolID = si
			p.GradYear = y
			p.TrueBirth = b.birthForGradYear(rng, y)
			p.CurrentCity = school.City
			p.Hometown = school.City
			p.Sociality = drawSociality(rng)
			b.allStudents = append(b.allStudents, p.ID)
		}
	}
}

func (b *builder) genAlumni(si int) {
	sc := b.cfg.Schools[si]
	rng := b.rng.Stream(fmt.Sprintf("alumni/%d", si))
	school := b.w.Schools[si]
	for back := 1; back <= sc.AlumniClasses; back++ {
		gradYear := b.cfg.SeniorClassYear - back
		for n := 0; n < sc.AlumniPerClass; n++ {
			p := b.newPerson(namegen.Gender(rng.Intn(2)), RoleAlumnus)
			p.SchoolID = si
			p.GradYear = gradYear
			p.TrueBirth = b.birthForGradYear(rng, gradYear)
			p.Hometown = school.City
			p.Sociality = drawSociality(rng)
			if rng.Bool(sc.AlumniMovedAway) {
				p.CurrentCity = b.otherCity(rng)
			} else {
				p.CurrentCity = school.City
			}
			// Alumni 4+ years out may be in graduate school (§4.4 filter).
			if back >= 4 && rng.Bool(sc.GradSchoolProbAlumni) {
				p.ListsGradSchool = true
			}
		}
	}
}

func (b *builder) genFormer(si int) {
	sc := b.cfg.Schools[si]
	rng := b.rng.Stream(fmt.Sprintf("former/%d", si))
	school := b.w.Schools[si]
	perYear := int(float64(sc.Students) * sc.ChurnPerYear)
	for left := 1; left <= sc.FormerYearsVisible; left++ {
		for n := 0; n < perYear; n++ {
			p := b.newPerson(namegen.Gender(rng.Intn(2)), RoleFormer)
			p.SchoolID = si
			// In the year they left they were in school year k (seniors
			// about to graduate rarely transfer), which fixes the grad year
			// their stale profile still shows.
			k := rng.IntBetween(1, 3)
			p.GradYear = (b.cfg.Now.Year - left) + (4 - k)
			p.TrueBirth = b.birthForGradYear(rng, p.GradYear)
			p.Hometown = school.City
			p.Sociality = drawSociality(rng)
			if rng.Bool(0.8) {
				p.CurrentCity = b.otherCity(rng)
			} else {
				p.CurrentCity = school.City
			}
		}
	}
}

func (b *builder) genTeachers(si int) {
	sc := b.cfg.Schools[si]
	rng := b.rng.Stream(fmt.Sprintf("teachers/%d", si))
	school := b.w.Schools[si]
	for n := 0; n < sc.Teachers; n++ {
		p := b.newPerson(namegen.Gender(rng.Intn(2)), RoleTeacher)
		p.SchoolID = si
		p.TrueBirth = sim.Date{
			Year:  b.cfg.Now.Year - rng.IntBetween(26, 60),
			Month: rng.IntBetween(1, 12),
			Day:   rng.IntBetween(1, 28),
		}
		p.CurrentCity = school.City
		p.Hometown = b.otherCity(rng)
	}
}

func (b *builder) genParents() {
	rng := b.rng.Stream("parents")
	if len(b.allStudents) == 0 {
		return
	}
	// Each child belongs to at most one generated parent so families stay
	// coherent (surname/household invariants).
	claimed := make(map[socialgraph.UserID]bool)
	for n := 0; n < b.cfg.Parents; n++ {
		p := b.newPerson(namegen.Gender(rng.Intn(2)), RoleParent)
		p.TrueBirth = sim.Date{
			Year:  b.cfg.Now.Year - rng.IntBetween(38, 56),
			Month: rng.IntBetween(1, 12),
			Day:   rng.IntBetween(1, 28),
		}
		kids := 1
		if rng.Bool(0.3) {
			kids = 2
		}
		for k := 0; k < kids; k++ {
			child := b.w.People[b.allStudents[rng.Intn(len(b.allStudents))]]
			if claimed[child.ID] {
				continue // already in another family
			}
			claimed[child.ID] = true
			p.ChildIDs = append(p.ChildIDs, child.ID)
			// Voter-registration linking in the paper keys on shared last
			// name, city and household address, so the family must be
			// coherent: the parent takes the first adopted child's
			// surname, city and household; later siblings adopt the
			// family's.
			if len(p.ChildIDs) == 1 {
				p.LastName = child.LastName
				p.CurrentCity = child.CurrentCity
				p.Hometown = child.CurrentCity
				p.StreetAddress = b.ng.Street()
				child.StreetAddress = p.StreetAddress
			} else {
				child.LastName = p.LastName
				child.CurrentCity = p.CurrentCity
				child.StreetAddress = p.StreetAddress
			}
		}
		b.parents = append(b.parents, p.ID)
	}
}

func (b *builder) genOutside() {
	rng := b.rng.Stream("outside")
	const teenFrac = 0.35
	for n := 0; n < b.cfg.OutsidePool; n++ {
		p := b.newPerson(namegen.Gender(rng.Intn(2)), RoleOutside)
		if rng.Bool(teenFrac) {
			// Teens at other schools, not modelled as full school
			// communities; they matter because they are registered minors
			// with minimal profiles (key to the §7 false-positive flood).
			p.TrueBirth = sim.Date{
				Year:  b.cfg.Now.Year - rng.IntBetween(13, 17),
				Month: rng.IntBetween(1, 12),
				Day:   rng.IntBetween(1, 28),
			}
		} else {
			p.TrueBirth = sim.Date{
				Year:  b.cfg.Now.Year - rng.IntBetween(18, 60),
				Month: rng.IntBetween(1, 12),
				Day:   rng.IntBetween(1, 28),
			}
		}
		if rng.Bool(0.5) {
			p.CurrentCity = b.homeCity
		} else {
			p.CurrentCity = b.otherCity(rng)
		}
		p.Hometown = p.CurrentCity
		if p.IsMinorAt(b.cfg.Now) {
			b.poolTeens = append(b.poolTeens, p.ID)
		} else {
			b.poolAdults = append(b.poolAdults, p.ID)
		}
	}
}

// assignAddresses gives everyone without a household (set during parent
// generation) their own street address.
func (b *builder) assignAddresses() {
	for _, p := range b.w.People {
		if p.StreetAddress == "" {
			p.StreetAddress = b.ng.Street()
		}
	}
}

// register decides who has an account and applies the lying model. It also
// fills the per-group account-holder indexes used by friendship generation.
func (b *builder) register() {
	rng := b.rng.Stream("register")
	ly := b.cfg.Lying
	for _, p := range b.w.People {
		var adoption float64
		var aliasProb float64
		switch p.Role {
		case RoleStudent:
			sc := b.cfg.Schools[p.SchoolID]
			adoption, aliasProb = sc.AdoptionRate, sc.AliasProb
		case RoleAlumnus, RoleFormer:
			adoption, aliasProb = 0.85, 0.02
		case RoleTeacher:
			adoption = 0.75
		case RoleParent:
			adoption = 0.70
		default:
			adoption = 1.0 // the pool exists only as OSN users
			aliasProb = 0.02
		}
		if !rng.Bool(adoption) {
			continue
		}
		p.HasAccount = true
		if rng.Bool(aliasProb) {
			p.AliasName = b.ng.Alias(p.FirstName, p.LastName)
		}
		p.RegisteredBirth = p.TrueBirth

		// Age lying. Anyone who wanted an account before turning 13 had to
		// lie: current students and pool teens are the populations that
		// were under 13 in the adoption wave; alumni mostly were not.
		lieProb := 0.0
		switch {
		case p.Role == RoleStudent || p.Role == RoleFormer,
			p.Role == RoleOutside && p.IsMinorAt(b.cfg.Now):
			lieProb = ly.StudentLieProb
		case p.Role == RoleAlumnus:
			lieProb = ly.AlumniLieProb
		}
		if rng.Bool(lieProb) {
			signupAge := rng.IntBetween(ly.SignupAgeMin, ly.SignupAgeMax)
			var claimedAge int
			if rng.Bool(ly.AdultClaimProb) {
				claimedAge = rng.IntBetween(18, 21)
			} else {
				claimedAge = 13
			}
			delta := claimedAge - signupAge
			if delta < 1 {
				delta = 1
			}
			p.LiedAtSignup = true
			p.RegisteredBirth = p.TrueBirth.AddYears(-delta)
		}

		switch p.Role {
		case RoleStudent:
			b.studentsBySchool[p.SchoolID] = append(b.studentsBySchool[p.SchoolID], p.ID)
		case RoleAlumnus:
			b.alumniBySchool[p.SchoolID] = append(b.alumniBySchool[p.SchoolID], p.ID)
		case RoleFormer:
			b.formerBySchool[p.SchoolID] = append(b.formerBySchool[p.SchoolID], p.ID)
		case RoleTeacher:
			b.teachersBySchool[p.SchoolID] = append(b.teachersBySchool[p.SchoolID], p.ID)
		}
	}
}

// genericPrivacy is the sharing distribution for people not tied to a
// scenario school (parents, teachers, outside pool).
var genericPrivacy = PrivacyDist{
	FriendListPublic: 0.55,
	PublicSearch:     0.70,
	MessageLink:      0.80,
	Relationship:     0.30,
	InterestedIn:     0.15,
	Birthday:         0.08,
	Hometown:         0.50,
	Photos:           0.55,
	Contact:          0.06,
	Network:          0.05,
	PhotosMean:       40,
}

func (b *builder) assignPrivacy() {
	rng := b.rng.Stream("privacy")
	for _, p := range b.w.People {
		if !p.HasAccount {
			continue
		}
		dist := genericPrivacy
		if p.SchoolID >= 0 && p.Role != RoleTeacher {
			dist = b.cfg.Schools[p.SchoolID].Privacy
		}
		p.Privacy = PrivacySettings{
			FriendListPublic: rng.Bool(dist.FriendListPublic),
			PublicSearch:     rng.Bool(dist.PublicSearch),
			MessageLink:      rng.Bool(dist.MessageLink),
			ShowRelationship: rng.Bool(dist.Relationship),
			ShowInterestedIn: rng.Bool(dist.InterestedIn),
			ShowBirthday:     rng.Bool(dist.Birthday),
			ShowHometown:     rng.Bool(dist.Hometown),
			ShowPhotos:       rng.Bool(dist.Photos),
			ShowContact:      rng.Bool(dist.Contact),
			ListsNetwork:     rng.Bool(dist.Network),
		}
		if p.Privacy.ShowPhotos {
			p.PhotosShared = rng.Poisson(dist.PhotosMean)
		}

		// Profile field disclosure.
		switch p.Role {
		case RoleStudent:
			sc := b.cfg.Schools[p.SchoolID]
			p.ListsSchool = rng.Bool(sc.ListsSchoolStudent)
			p.ListsCity = rng.Bool(0.5)
		case RoleAlumnus:
			sc := b.cfg.Schools[p.SchoolID]
			p.ListsSchool = rng.Bool(sc.ListsSchoolAlumni)
			p.ListsCity = rng.Bool(0.6)
		case RoleFormer:
			sc := b.cfg.Schools[p.SchoolID]
			if rng.Bool(sc.FormerUpdatesSchool) {
				// Profile now names the new school: the §4.4
				// "different high school" filter will catch these.
				p.ListsSchool = false
				p.ListsGradSchool = false
			} else {
				p.ListsSchool = rng.Bool(sc.ListsSchoolFormer)
			}
			p.ListsCity = rng.Bool(0.5)
		default:
			p.ListsCity = rng.Bool(0.5)
		}
	}
}

func (b *builder) genFriendships() {
	for si := range b.cfg.Schools {
		b.genSchoolFriendships(si)
	}
	b.genParentFriendships()
}

// cohortMembers groups a school's student account holders by cohort index.
func (b *builder) cohortMembers(si int) [4][]socialgraph.UserID {
	var out [4][]socialgraph.UserID
	school := b.w.Schools[si]
	for _, id := range b.studentsBySchool[si] {
		if ci := school.CohortIndex(b.w.People[id].GradYear); ci >= 0 {
			out[ci] = append(out[ci], id)
		}
	}
	return out
}

func (b *builder) genSchoolFriendships(si int) {
	sc := b.cfg.Schools[si]
	fc := sc.Friendship
	rng := b.rng.Stream(fmt.Sprintf("friends/%d", si))
	cohorts := b.cohortMembers(si)

	// Intra-cohort: dense classmate ties.
	for _, members := range cohorts {
		b.pairEdges(rng, members, fc.InCohortDegree)
	}
	// Adjacent-cohort ties.
	for k := 0; k+1 < 4; k++ {
		b.bipartitePairEdges(rng, cohorts[k], cohorts[k+1], fc.CrossCohortDegree)
	}

	// Alumni: intra-class ties, outside ties and the recent-grad bridge to
	// current students.
	byClass := make(map[int][]socialgraph.UserID)
	for _, id := range b.alumniBySchool[si] {
		byClass[b.w.People[id].GradYear] = append(byClass[b.w.People[id].GradYear], id)
	}
	classYears := make([]int, 0, len(byClass))
	for y := range byClass {
		classYears = append(classYears, y)
	}
	sort.Ints(classYears)
	students := b.studentsBySchool[si]
	for _, gradYear := range classYears {
		members := byClass[gradYear]
		b.pairEdges(rng, members, fc.AlumniOwnClassDegree)
		back := b.cfg.SeniorClassYear - gradYear
		mean := fc.RecentGradBridgeMean
		for i := 1; i < back; i++ {
			mean *= fc.BridgeDecayPerClass
		}
		if mean > 0.2 && len(students) > 0 {
			for _, a := range members {
				k := rng.Poisson(mean)
				for j := 0; j < k; j++ {
					b.befriend(a, students[rng.Intn(len(students))])
				}
			}
		}
	}

	// Former students keep a decayed slice of the classmate ties they had,
	// concentrated in the cohorts nearest their own grad year.
	school := b.w.Schools[si]
	for _, id := range b.formerBySchool[si] {
		p := b.w.People[id]
		mean := fc.InCohortDegree * fc.FormerRetainFrac * p.Sociality
		ci := school.CohortIndex(p.GradYear)
		var target []socialgraph.UserID
		if ci >= 0 {
			target = cohorts[ci]
		} else {
			// Their class has graduated; remaining ties are to the oldest
			// current students, and fewer of them.
			target = cohorts[0]
			mean *= 0.4
		}
		if len(target) == 0 {
			continue
		}
		k := rng.Poisson(mean)
		for j := 0; j < k; j++ {
			b.befriend(id, target[rng.Intn(len(target))])
		}
	}

	// Teachers befriend a few students.
	for _, id := range b.teachersBySchool[si] {
		k := rng.Poisson(fc.TeacherStudentDegree)
		for j := 0; j < k && len(students) > 0; j++ {
			b.befriend(id, students[rng.Intn(len(students))])
		}
	}

	// Outside-pool friendships: students' circles skew to other teens.
	for _, id := range students {
		soc := b.w.People[id].Sociality
		deg := rng.NormInt(fc.OutsideDegreeMean*soc, fc.OutsideDegreeStd*soc, 0, int(fc.OutsideDegreeMean*3)+10)
		b.outsideEdges(rng, id, deg, 0.6)
	}
	for _, id := range b.alumniBySchool[si] {
		soc := b.w.People[id].Sociality
		deg := rng.NormInt(fc.AlumniOutsideDegree*soc, fc.AlumniOutsideDegree/3, 0, int(fc.AlumniOutsideDegree*3)+10)
		b.outsideEdges(rng, id, deg, 0.1)
	}
	for _, id := range b.formerBySchool[si] {
		soc := b.w.People[id].Sociality
		deg := rng.NormInt(fc.OutsideDegreeMean*0.8*soc, fc.OutsideDegreeStd, 0, int(fc.OutsideDegreeMean*3)+10)
		b.outsideEdges(rng, id, deg, 0.5)
	}
}

// outsideEdges connects id to deg outside-pool members, drawing a teenFrac
// share from the teen sub-pool.
func (b *builder) outsideEdges(rng *sim.Rand, id socialgraph.UserID, deg int, teenFrac float64) {
	for j := 0; j < deg; j++ {
		var pool []socialgraph.UserID
		if rng.Bool(teenFrac) && len(b.poolTeens) > 0 {
			pool = b.poolTeens
		} else {
			pool = b.poolAdults
		}
		if len(pool) == 0 {
			return
		}
		b.befriend(id, pool[rng.Intn(len(pool))])
	}
}

// pairEdges creates internal edges so members average avgDegree friends in
// the group. Each unordered pair is an independent Bernoulli trial with
// p = avgDegree/(n-1) (an Erdős–Rényi block), which hits the target degree
// exactly even in dense cohorts where repeated-pair sampling would
// saturate.
func (b *builder) pairEdges(rng *sim.Rand, members []socialgraph.UserID, avgDegree float64) {
	n := len(members)
	if n < 2 {
		return
	}
	base := avgDegree / float64(n-1)
	for i := 0; i < n; i++ {
		wi := b.w.People[members[i]].Sociality
		for j := i + 1; j < n; j++ {
			p := base * wi * b.w.People[members[j]].Sociality
			if rng.Bool(p) {
				b.befriend(members[i], members[j])
			}
		}
	}
}

// bipartitePairEdges creates cross-group edges so that members of ga gain
// ~avgDegree friends in group gb on average (Bernoulli per cross pair).
func (b *builder) bipartitePairEdges(rng *sim.Rand, ga, gb []socialgraph.UserID, avgDegree float64) {
	if len(ga) == 0 || len(gb) == 0 {
		return
	}
	base := avgDegree / float64(len(gb))
	for _, u := range ga {
		wu := b.w.People[u].Sociality
		for _, v := range gb {
			if rng.Bool(base * wu * b.w.People[v].Sociality) {
				b.befriend(u, v)
			}
		}
	}
}

func (b *builder) genParentFriendships() {
	rng := b.rng.Stream("friends/parents")
	for _, pid := range b.parents {
		p := b.w.People[pid]
		if !p.HasAccount {
			continue
		}
		for _, cid := range p.ChildIDs {
			child := b.w.People[cid]
			if child.HasAccount && child.SchoolID >= 0 {
				prob := b.cfg.Schools[child.SchoolID].Friendship.ParentFriendProb
				if rng.Bool(prob) {
					b.befriend(pid, cid)
				}
			}
		}
		// Parents know other parents.
		k := rng.Poisson(6)
		for j := 0; j < k; j++ {
			other := b.parents[rng.Intn(len(b.parents))]
			if other != pid && b.w.People[other].HasAccount {
				b.befriend(pid, other)
			}
		}
	}
}
