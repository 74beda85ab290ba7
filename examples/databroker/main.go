// Databroker quantifies the paper's first consequential threat (§2): a
// data broker enriches the inferred high-school profiles by joining them
// against public voter-registration records, recovering street addresses —
// "the data broker can use the last name and city in the high-school
// profiles to link the students to parents in the voter registration
// records."
//
// The output is a risk quantification against ground truth, not a dossier
// dump: how many of a school's students end up with a correct home address
// attached, and how much the friend-list corroboration trick helps.
package main

import (
	"context"
	"fmt"
	"log"

	"hsprofiler/internal/core"
	"hsprofiler/internal/crawler"
	"hsprofiler/internal/extend"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/records"
	"hsprofiler/internal/worldgen"
)

func main() {
	world, err := worldgen.Generate(worldgen.HS1Config(), 2013)
	if err != nil {
		log.Fatal(err)
	}
	platform := osn.NewPlatform(world, osn.Facebook(), osn.Config{SearchPerAccount: 250})
	client, err := crawler.NewDirect(platform, 2)
	if err != nil {
		log.Fatal(err)
	}
	sess := crawler.NewSession(client)

	// Phase 1: the OSN attack.
	res, err := core.Run(sess, core.Params{
		SchoolName:   world.Schools[0].Name,
		CurrentYear:  2012,
		Mode:         core.Enhanced,
		MaxThreshold: 400,
	})
	if err != nil {
		log.Fatal(err)
	}
	sel := res.Select(400, true)
	dossier, err := extend.Build(context.Background(), sess, 1, sel)
	if err != nil {
		log.Fatal(err)
	}

	// Phase 2: the public-records join. Roughly 65% of US adults are
	// registered to vote.
	db := records.BuildVoterDB(world, 0.65, 7)
	var subjects []records.Subject
	for _, s := range sel {
		sub := records.Subject{ID: string(s.ID), DisplayName: s.Name, City: res.School.City}
		for _, lists := range [][]osn.PublicID{dossier.PublicFriends[s.ID], dossier.RecoveredFriends[s.ID]} {
			for _, f := range lists {
				if n, ok := dossier.FriendNames[f]; ok {
					sub.FriendNames = append(sub.FriendNames, n)
				}
			}
		}
		subjects = append(subjects, sub)
	}
	guesses := records.Link(db, subjects, records.LinkOptions{CurrentYear: 2012})

	// Phase 3: score against ground truth (which neither phase saw).
	byConf := map[records.Confidence][2]int{} // guesses, correct
	for _, g := range guesses {
		uid, ok := platform.UserIDOf(osn.PublicID(g.SubjectID))
		if !ok {
			continue
		}
		person := world.Person(uid)
		pair := byConf[g.Confidence]
		pair[0]++
		if person.Role == worldgen.RoleStudent && g.Address == person.StreetAddress {
			pair[1]++
		}
		byConf[g.Confidence] = pair
	}

	fmt.Printf("school: %s — %d inferred students, voter roll of %d records\n\n",
		res.School.Name, len(sel), db.Len())
	fmt.Printf("%-24s %8s %8s %10s\n", "confidence", "guesses", "correct", "precision")
	total, totalCorrect := 0, 0
	for _, c := range []records.Confidence{records.ParentInFriendList, records.NameCityUnique, records.Ambiguous} {
		pair := byConf[c]
		prec := 0.0
		if pair[0] > 0 {
			prec = float64(pair[1]) / float64(pair[0])
		}
		fmt.Printf("%-24s %8d %8d %9.0f%%\n", c, pair[0], pair[1], prec*100)
		total += pair[0]
		totalCorrect += pair[1]
	}
	fmt.Printf("%-24s %8d %8d\n\n", "total", total, totalCorrect)
	fmt.Println("friend-list corroboration (a parent visible via reverse lookup) is the")
	fmt.Println("high-precision path — exactly the \"greater certainty\" the paper warns")
	fmt.Println("about. Every address here belongs to a synthetic person.")
}
