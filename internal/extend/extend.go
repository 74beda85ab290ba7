// Package extend implements Section 6 of the paper: growing the inferred
// student list H into per-student dossiers.
//
// For registered minors (minimal profiles) it applies reverse lookup to
// recover partial friend lists that Facebook never exposes directly, and
// the Jaccard heuristic to infer hidden minor-to-minor friendships. For
// minors registered as adults it quantifies the additional directly
// readable profile surface (the paper's Table 5).
package extend

import (
	"context"
	"errors"
	"sort"

	"hsprofiler/internal/core"
	"hsprofiler/internal/crawler"
	"hsprofiler/internal/obs/evlog"
	"hsprofiler/internal/osn"
)

// Dossier is the §6 extension state for one school's inferred students.
type Dossier struct {
	// Profiles holds the downloaded public profile of every member of H.
	Profiles map[osn.PublicID]*osn.PublicProfile
	// PublicFriends holds the full friend lists of H members who expose
	// them.
	PublicFriends map[osn.PublicID][]osn.PublicID
	// RecoveredFriends holds, for every H member u whose list is hidden
	// (all registered minors), the partial friend list recovered by reverse
	// lookup: the H members and other visible users v with u ∈ F(v).
	RecoveredFriends map[osn.PublicID][]osn.PublicID
	// FriendNames maps every user ID seen in any fetched friend list to
	// its display name, so downstream consumers (e.g. the §2 voter-roll
	// linker) can name friends without fetching their profiles.
	FriendNames map[osn.PublicID]string
}

// Build downloads the profile and, when visible, the full friend list of
// every member of H over the session's worker pool, workers wide, and
// performs reverse lookup for the hidden ones. The per-request effort lands
// on the session's tally, as in the paper's §6 crawl; the dossier and that
// effort are the same at any width.
func Build(ctx context.Context, sess *crawler.Session, workers int, sel []core.Inferred) (*Dossier, error) {
	lg := sess.Log()
	lg.Info(ctx, "extend", "dossier build started",
		evlog.Int("students", len(sel)), evlog.Int("workers", workers))
	profiles := make([]*osn.PublicProfile, len(sel))
	lists := make([][]osn.FriendRef, len(sel))
	err := sess.ForEach(ctx, workers, len(sel), func(ctx context.Context, i int) error {
		pp, err := sess.FetchProfile(ctx, sel[i].ID)
		if err != nil {
			return err
		}
		profiles[i] = pp
		if !pp.FriendListVisible {
			return nil
		}
		friends, err := sess.FetchFriends(ctx, sel[i].ID)
		if errors.Is(err, osn.ErrHidden) {
			return nil
		}
		if err != nil {
			return err
		}
		if friends == nil {
			friends = []osn.FriendRef{} // visible but empty: keep the entry
		}
		lists[i] = friends
		return nil
	})
	if err != nil {
		return nil, err
	}
	d := assemble(sel, profiles, lists)
	lg.Info(ctx, "extend", "dossier assembled",
		evlog.Int("profiles", len(d.Profiles)),
		evlog.Int("public_lists", len(d.PublicFriends)),
		evlog.Int("recovered_lists", len(d.RecoveredFriends)))
	return d, nil
}

// assemble builds the dossier from downloads aligned with sel: profiles[i]
// belongs to sel[i], and lists[i] is its visible friend list (nil when the
// list is hidden). The reverse-lookup pass is pure computation.
func assemble(sel []core.Inferred, profiles []*osn.PublicProfile, lists [][]osn.FriendRef) *Dossier {
	d := &Dossier{
		Profiles:         make(map[osn.PublicID]*osn.PublicProfile, len(sel)),
		PublicFriends:    make(map[osn.PublicID][]osn.PublicID),
		RecoveredFriends: make(map[osn.PublicID][]osn.PublicID),
		FriendNames:      make(map[osn.PublicID]string),
	}
	inH := make(map[osn.PublicID]bool, len(sel))
	for _, s := range sel {
		inH[s.ID] = true
	}
	recovered := make(map[osn.PublicID]map[osn.PublicID]bool)
	for i, s := range sel {
		d.Profiles[s.ID] = profiles[i]
		if lists[i] == nil {
			continue
		}
		ids := make([]osn.PublicID, len(lists[i]))
		for j, f := range lists[i] {
			ids[j] = f.ID
			d.FriendNames[f.ID] = f.Name
		}
		d.PublicFriends[s.ID] = ids
		// Reverse lookup: every hidden H member on this visible list gains
		// a recovered friend edge.
		for _, fid := range ids {
			if !inH[fid] {
				continue
			}
			if set := recovered[fid]; set != nil {
				set[s.ID] = true
			} else {
				recovered[fid] = map[osn.PublicID]bool{s.ID: true}
			}
		}
	}
	for id, set := range recovered {
		if _, visible := d.PublicFriends[id]; visible {
			continue // full list already known
		}
		ids := make([]osn.PublicID, 0, len(set))
		for f := range set {
			ids = append(ids, f)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		d.RecoveredFriends[id] = ids
	}
	return d
}

// MinorProfile is the §6.1 result for one registered minor: everything the
// third party now knows despite Facebook showing strangers a minimal
// profile.
type MinorProfile struct {
	ID               osn.PublicID
	Name             string
	Gender           string
	HighSchool       string
	GradYear         int
	InferredBirthYr  int
	HomeCity         string
	RecoveredFriends []osn.PublicID
}

// MinorProfiles assembles the extended profiles of the minimal-profile
// (registered minor) members of H: minimal public data plus the inferred
// school, graduation year, estimated birth year (graduation year − 18),
// home city (the school's city) and the reverse-lookup friend list.
func (d *Dossier) MinorProfiles(sel []core.Inferred, school osn.SchoolRef) []MinorProfile {
	var out []MinorProfile
	for _, s := range sel {
		pp := d.Profiles[s.ID]
		if pp == nil || !pp.Minimal() {
			continue
		}
		out = append(out, MinorProfile{
			ID:               s.ID,
			Name:             pp.Name,
			Gender:           pp.Gender,
			HighSchool:       school.Name,
			GradYear:         s.GradYear,
			InferredBirthYr:  s.GradYear - 18,
			HomeCity:         school.City,
			RecoveredFriends: d.RecoveredFriends[s.ID],
		})
	}
	return out
}

// AvgRecoveredFriends is the §6.1 headline statistic: the mean number of
// friends recovered per minimal-profile member of H (the paper reports
// 38/141/129 for HS1/HS2/HS3).
func (d *Dossier) AvgRecoveredFriends(sel []core.Inferred) float64 {
	n, total := 0, 0
	for _, s := range sel {
		pp := d.Profiles[s.ID]
		if pp == nil || !pp.Minimal() {
			continue
		}
		n++
		total += len(d.RecoveredFriends[s.ID])
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// AdultMinorStats is the paper's Table 5: the extra profile surface
// available for minors registered as adults. The population is selected the
// way the attacker can: members of H classified into school years 1-3 whose
// profiles exceed the minimal set (hence registered adults).
type AdultMinorStats struct {
	Count            int
	FriendListPublic float64 // fraction with entire friend list public
	AvgFriendsPublic float64 // mean friend count among those
	PublicSearch     float64
	MessageLink      float64
	Relationship     float64
	InterestedIn     float64
	Birthday         float64
	AvgPhotos        float64
}

// AdultMinorTable computes Table 5 from the dossier. currentYear is the
// senior class year; years 1-3 are graduation years strictly after it
// (some fourth-year students are genuinely adults, so the paper excludes
// the senior class).
func (d *Dossier) AdultMinorTable(sel []core.Inferred, currentYear int) AdultMinorStats {
	var st AdultMinorStats
	var flPublic, search, msg, rel, interested, bday int
	var friendSum, photoSum int
	for _, s := range sel {
		if s.GradYear <= currentYear || s.GradYear > currentYear+3 {
			continue
		}
		pp := d.Profiles[s.ID]
		if pp == nil || pp.Minimal() {
			continue
		}
		st.Count++
		if pp.FriendListVisible {
			flPublic++
			friendSum += len(d.PublicFriends[s.ID])
		}
		if pp.Searchable {
			search++
		}
		if pp.CanMessage {
			msg++
		}
		if pp.Relationship {
			rel++
		}
		if pp.InterestedIn {
			interested++
		}
		if pp.Birthday != nil {
			bday++
		}
		photoSum += pp.PhotoCount
	}
	if st.Count == 0 {
		return st
	}
	n := float64(st.Count)
	st.FriendListPublic = float64(flPublic) / n
	if flPublic > 0 {
		st.AvgFriendsPublic = float64(friendSum) / float64(flPublic)
	}
	st.PublicSearch = float64(search) / n
	st.MessageLink = float64(msg) / n
	st.Relationship = float64(rel) / n
	st.InterestedIn = float64(interested) / n
	st.Birthday = float64(bday) / n
	st.AvgPhotos = float64(photoSum) / n
	return st
}

// RefinedBirthYear estimates a student's birth year from the visible
// birthdays of their known friends, following the network age-inference
// idea of Dey et al. (INFOCOM 2012) that §6 builds on: high-school
// friendships are strongly age-assortative, so the median friend birth
// year is a tight estimator. Friends with implausibly inflated registered
// birthdays (the lying minors) pull the median down, so candidates outside
// the plausible high-school band relative to the grad-year prior are
// discarded first. Returns the grad-year prior (gradYear − 18) when no
// usable friend birthday exists.
func (d *Dossier) RefinedBirthYear(id osn.PublicID, gradYear int) int {
	prior := gradYear - 18
	var years []int
	consider := func(fid osn.PublicID) {
		pp := d.Profiles[fid]
		if pp == nil || pp.Birthday == nil {
			return
		}
		y := pp.Birthday.Year
		// Keep only classmates-plausible years: within 2 of the prior.
		// Registered birthdays inflated by age-lying fall outside and are
		// dropped rather than averaged in.
		if y >= prior-2 && y <= prior+2 {
			years = append(years, y)
		}
	}
	for _, f := range d.PublicFriends[id] {
		consider(f)
	}
	for _, f := range d.RecoveredFriends[id] {
		consider(f)
	}
	if len(years) == 0 {
		return prior
	}
	sort.Ints(years)
	return years[len(years)/2]
}

// Reachability quantifies the §2 contact surface a third party holds over
// the inferred students: how many can be messaged directly as strangers,
// and how many have known friends whose names could personalize contact
// (the ingredients of the paper's spear-phishing and grooming threats,
// counted here for risk assessment).
type Reachability struct {
	Total int
	// Messageable counts profiles exposing a Message control to strangers.
	Messageable int
	// FriendAware counts students with at least one known friend (public
	// or recovered) — the personalization surface.
	FriendAware int
	// FullDossier counts students with both a contact channel and known
	// friends.
	FullDossier int
}

// Reachability computes the contact-surface statistics for a selection.
func (d *Dossier) Reachability(sel []core.Inferred) Reachability {
	var r Reachability
	for _, s := range sel {
		r.Total++
		pp := d.Profiles[s.ID]
		messageable := pp != nil && pp.CanMessage
		friends := len(d.PublicFriends[s.ID]) > 0 || len(d.RecoveredFriends[s.ID]) > 0
		if messageable {
			r.Messageable++
		}
		if friends {
			r.FriendAware++
		}
		if messageable && friends {
			r.FullDossier++
		}
	}
	return r
}

// HiddenLink is an inferred friendship between two users whose friend lists
// are both hidden (e.g. two registered minors).
type HiddenLink struct {
	A, B    osn.PublicID
	Jaccard float64
}

// InferHiddenLinks applies the §6.1 Jaccard heuristic: for every pair of
// hidden-list H members, compute J = |F_A ∩ F_B| / |F_A ∪ F_B| over the
// recovered friend lists; pairs at or above threshold are inferred to be
// friends. minOverlap discards pairs with tiny recovered lists, which make
// the index unstable.
func (d *Dossier) InferHiddenLinks(threshold float64, minOverlap int) []HiddenLink {
	ids := make([]osn.PublicID, 0, len(d.RecoveredFriends))
	for id := range d.RecoveredFriends {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	sets := make(map[osn.PublicID]map[osn.PublicID]bool, len(ids))
	for _, id := range ids {
		set := make(map[osn.PublicID]bool, len(d.RecoveredFriends[id]))
		for _, f := range d.RecoveredFriends[id] {
			set[f] = true
		}
		sets[id] = set
	}
	var out []HiddenLink
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			a, b := sets[ids[i]], sets[ids[j]]
			inter := 0
			small, large := a, b
			if len(small) > len(large) {
				small, large = large, small
			}
			for f := range small {
				if large[f] {
					inter++
				}
			}
			if inter < minOverlap {
				continue
			}
			union := len(a) + len(b) - inter
			if union == 0 {
				continue
			}
			if jac := float64(inter) / float64(union); jac >= threshold {
				out = append(out, HiddenLink{A: ids[i], B: ids[j], Jaccard: jac})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Jaccard > out[j].Jaccard })
	return out
}
