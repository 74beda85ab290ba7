package osn

import (
	"hsprofiler/internal/socialgraph"
	"hsprofiler/internal/worldgen"
)

// readPlane is the platform's immutable serving state: everything a
// stranger-facing request needs, pre-resolved at construction time against
// the Table 1/Table 6 policy matrix. After the freeze step nothing here is
// ever written again, so Search/Profile/FriendPage serve from it with no
// lock at all — any number of goroutines, zero contention. The mutable
// remainder (throttle windows, budgets, suspensions, cached search views)
// lives in the sharded control plane.
type readPlane struct {
	// frozen is the CSR snapshot of the friendship graph. The read plane
	// holds it from its build until Platform.release, so no later patch
	// writes into its arrays while a pinned request can still read them.
	frozen *socialgraph.Frozen
	// names[u] is the display name of account holder u ("" otherwise).
	names []string
	// regMinor[u] reports whether the OSN believes u is under 18 at the
	// world's collection date — the class that selects the policy cap.
	regMinor []bool
	// searchEligible[u] pre-resolves the search-portal policy gate: the
	// paper's platforms never return registered minors from school or city
	// search.
	searchEligible []bool
	// friendVisible[u] pre-resolves AttrFriendList stranger-visibility.
	friendVisible []bool
	// profiles[u] is the fully rendered stranger view of u's profile (nil
	// for people without accounts). Served by pointer; callers must treat
	// it as read-only.
	profiles []*PublicProfile

	// Friend lists are deliberately NOT materialized: FriendPage renders
	// pages on the fly from the frozen CSR row, friendVisible and names.
	// A metro-scale refs-per-edge array costs ~GBs of pointer-dense heap
	// per epoch (and the GC mark time that comes with it); the CSR row it
	// would be derived from is already resident and pointer-free.
}

// buildReadPlane runs the freeze step: it resolves the policy matrix once
// per user and materializes every stranger-visible view the serving
// endpoints need.
func buildReadPlane(w *worldgen.World, pol *Policy, pub []PublicID) *readPlane {
	n := len(w.People)
	rp := &readPlane{
		frozen:         w.Frozen(),
		names:          make([]string, n),
		regMinor:       make([]bool, n),
		searchEligible: make([]bool, n),
		friendVisible:  make([]bool, n),
		profiles:       make([]*PublicProfile, n),
	}
	rp.frozen.Retain()
	render := newProfileRenderer(w, pol, pub, rp.names)
	for _, person := range w.People {
		if !person.HasAccount {
			continue
		}
		u := person.ID
		rp.names[u] = person.DisplayName()
		rp.regMinor[u] = person.RegisteredMinorAt(w.Now)
		rp.searchEligible[u] = pol.MinorsSearchable || !rp.regMinor[u]
		rp.friendVisible[u] = visibleToStranger(pol, person, rp.regMinor[u], AttrFriendList)
		rp.profiles[u] = render.profile(u, rp.regMinor[u])
	}
	return rp
}

// profileRenderer resolves stranger views of profiles for one epoch
// build. It holds what the build's profiles share, so that each piece is
// made once: the display names, which the read plane keeps, and each
// school's network string.
type profileRenderer struct {
	w   *worldgen.World
	pol *Policy
	// pub is the platform's public IDs; nil leaves each profile's ID
	// empty, for a build that runs while they are drawn.
	pub   []PublicID
	names []string
	// networks[s] is school s's network, "<City> network".
	networks []string
}

func newProfileRenderer(w *worldgen.World, pol *Policy, pub []PublicID, names []string) *profileRenderer {
	r := &profileRenderer{w: w, pol: pol, pub: pub, names: names, networks: make([]string, len(w.Schools))}
	for i, s := range w.Schools {
		r.networks[i] = s.City + " network"
	}
	return r
}

// profile resolves the stranger view of u's profile under the policy. It
// runs once per user during the freeze step, and for the users an
// incremental build re-renders; requests serve the result by pointer.
// names[u] must already hold u's display name.
func (r *profileRenderer) profile(u socialgraph.UserID, regMinor bool) *PublicProfile {
	person := r.w.People[u]
	pol := r.pol
	vis := func(a Attribute) bool { return visibleToStranger(pol, person, regMinor, a) }

	pp := &PublicProfile{
		Name:     r.names[u],
		HasPhoto: vis(AttrProfilePhoto),
	}
	if r.pub != nil {
		pp.ID = r.pub[u]
	}
	if vis(AttrGender) {
		pp.Gender = person.Gender.String()
	}
	if vis(AttrNetworks) && person.SchoolID >= 0 {
		pp.Network = r.networks[person.SchoolID]
	}
	if vis(AttrHighSchool) && person.SchoolID >= 0 {
		pp.HighSchool = r.w.Schools[person.SchoolID].Name
		pp.GradYear = person.GradYear
	}
	pp.GradSchool = vis(AttrGradSchool)
	pp.Relationship = vis(AttrRelationship)
	pp.InterestedIn = vis(AttrInterestedIn)
	if vis(AttrBirthday) {
		b := person.RegisteredBirth
		pp.Birthday = &b
	}
	if vis(AttrHometown) {
		pp.Hometown = person.Hometown
	}
	if vis(AttrCurrentCity) {
		pp.CurrentCity = person.CurrentCity
	}
	pp.FriendListVisible = vis(AttrFriendList)
	if vis(AttrPhotos) {
		pp.PhotoCount = person.PhotosShared
	}
	pp.ContactInfo = vis(AttrContact)
	pp.CanMessage = person.Privacy.MessageLink && (!regMinor || pol.MinorsMessageable)
	pp.Searchable = person.Privacy.PublicSearch && (!regMinor || pol.MinorsSearchable)
	return pp
}
