// Cityaudit demonstrates the paper's city-scale claim (§1): "by profiling
// all the high schools in a city, a third-party can discover and develop
// profiles for most of the minors, ages 14-17, in that city."
//
// It generates a city with several high schools, attacks each one, builds
// the §6 dossiers, and reports the aggregate exposure — including how many
// registered minors ended up with school, grade, inferred birth year and a
// recovered friend list despite their minimal public profiles.
package main

import (
	"context"
	"fmt"
	"log"

	"hsprofiler/internal/core"
	"hsprofiler/internal/crawler"
	"hsprofiler/internal/eval"
	"hsprofiler/internal/extend"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/worldgen"
)

func main() {
	const schools = 3
	world, err := worldgen.Generate(worldgen.CityConfig(schools), 42)
	if err != nil {
		log.Fatal(err)
	}
	platform := osn.NewPlatform(world, osn.Facebook(), osn.Config{})
	client, err := crawler.NewDirect(platform, 4)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("auditing %s: %d high schools\n\n", world.Schools[0].City, schools)
	var totalMinors, totalDossiers, totalFound, totalStudents int
	for i, school := range world.Schools {
		sess := crawler.NewSession(client)
		res, err := core.Run(sess, core.Params{
			SchoolName:   school.Name,
			CurrentYear:  2012,
			Mode:         core.Enhanced,
			MaxThreshold: 300,
		})
		if err != nil {
			log.Fatalf("%s: %v", school.Name, err)
		}
		sel := res.Select(250, true)
		dossier, err := extend.Build(context.Background(), sess, 1, sel)
		if err != nil {
			log.Fatal(err)
		}
		minors := dossier.MinorProfiles(sel, res.School)

		truth := eval.NewGroundTruth(platform, i)
		outcome := truth.Evaluate(sel)
		reach := dossier.Reachability(sel)
		fmt.Printf("%-30s found %3d/%3d students (%.0f%%), %3d registered-minor dossiers, %d messageable, %d requests\n",
			school.Name, outcome.Found, outcome.M, 100*outcome.FoundFrac(),
			len(minors), reach.Messageable, res.Effort.Total())

		totalStudents += outcome.M
		totalFound += outcome.Found
		totalDossiers += len(minors)
		totalMinors += truth.MinimalCount()
	}

	fmt.Printf("\ncity-wide: %d of %d students discovered (%.0f%%)\n",
		totalFound, totalStudents, 100*float64(totalFound)/float64(totalStudents))
	fmt.Printf("registered minors in the city with minimal public profiles: %d\n", totalMinors)
	fmt.Printf("extended dossiers built for minimal-profile users:          %d\n", totalDossiers)
	fmt.Println("\neach dossier adds: high school, graduation year, inferred birth year,")
	fmt.Println("home city, and a reverse-lookup friend list — none of which Facebook")
	fmt.Println("shows strangers for a registered minor, however their settings are set.")
}
