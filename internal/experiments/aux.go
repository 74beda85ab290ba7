package experiments

import (
	"context"
	"fmt"

	"hsprofiler/internal/core"
	"hsprofiler/internal/crawler"
	"hsprofiler/internal/eval"
	"hsprofiler/internal/extend"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/report"
)

// Auxiliary experiments: extensions the paper sketches but does not
// evaluate. §6.1 proposes inferring hidden minor-to-minor friendships from
// reverse-lookup Jaccard indexes ("Although not explored in this paper…");
// the appendix reports that "our preliminary analysis indicates that the
// attack applies to Google+ as well". Both are quantified here.

// HiddenLinkPoint is one threshold of the link-inference sweep.
type HiddenLinkPoint struct {
	Threshold float64
	Inferred  int
	Correct   int
	Precision float64
	Recall    float64
}

// AuxHiddenLinks evaluates §6.1's Jaccard heuristic on a scenario:
// inferred links between hidden-list members of H are scored against the
// ground-truth graph, sweeping the Jaccard threshold.
func AuxHiddenLinks(l *Lab, sc Scenario) ([]HiddenLinkPoint, *report.Table, error) {
	res, err := l.Run(sc, RunEnhanced)
	if err != nil {
		return nil, nil, err
	}
	sess, err := l.Session(sc)
	if err != nil {
		return nil, nil, err
	}
	t := sc.HSSize
	if t > sc.MaxThreshold {
		t = sc.MaxThreshold
	}
	sel := res.Select(t, true)
	dossier, err := extend.Build(context.TODO(), sess, 1, sel)
	if err != nil {
		return nil, nil, err
	}
	platform, err := l.Platform(sc)
	if err != nil {
		return nil, nil, err
	}
	world := platform.World()

	// Ground truth: the actual friendships between hidden-list users for
	// whom reverse lookup recovered anything (the population the
	// heuristic can see at all).
	var hiddenIDs []osn.PublicID
	for id := range dossier.RecoveredFriends {
		hiddenIDs = append(hiddenIDs, id)
	}
	frozen := world.Frozen()
	trueLinks := 0
	for i := 0; i < len(hiddenIDs); i++ {
		ui, _ := platform.UserIDOf(hiddenIDs[i])
		for j := i + 1; j < len(hiddenIDs); j++ {
			uj, _ := platform.UserIDOf(hiddenIDs[j])
			if frozen.AreFriends(ui, uj) {
				trueLinks++
			}
		}
	}

	tbl := &report.Table{
		Title:   fmt.Sprintf("Aux: hidden-link inference on %s (%d hidden users, %d true hidden links)", sc.Label, len(hiddenIDs), trueLinks),
		Headers: []string{"Jaccard threshold", "inferred", "correct", "precision", "recall"},
	}
	var points []HiddenLinkPoint
	for _, th := range []float64{0.15, 0.2, 0.25, 0.3, 0.4, 0.5} {
		links := dossier.InferHiddenLinks(th, 3)
		correct := 0
		for _, lk := range links {
			a, _ := platform.UserIDOf(lk.A)
			b, _ := platform.UserIDOf(lk.B)
			if frozen.AreFriends(a, b) {
				correct++
			}
		}
		p := HiddenLinkPoint{Threshold: th, Inferred: len(links), Correct: correct}
		if len(links) > 0 {
			p.Precision = float64(correct) / float64(len(links))
		}
		if trueLinks > 0 {
			p.Recall = float64(correct) / float64(trueLinks)
		}
		points = append(points, p)
		tbl.AddRow(report.FormatFloat(th), p.Inferred, p.Correct,
			report.Pct(p.Precision), report.Pct(p.Recall))
	}
	return points, tbl, nil
}

// GPlusOutcome summarizes the Google+ feasibility check.
type GPlusOutcome struct {
	FoundFrac       float64
	FPRate          float64
	CorrectYearFrac float64
}

// AuxGooglePlus runs the full methodology against the same world served
// under the Google+ policy (Table 6), quantifying the appendix's claim
// that the attack transfers.
func AuxGooglePlus(l *Lab, sc Scenario, threshold int) (GPlusOutcome, *report.Table, error) {
	world, err := l.World(sc)
	if err != nil {
		return GPlusOutcome{}, nil, err
	}
	platform := osn.NewPlatform(world, osn.GooglePlus(), osn.Config{SearchPerAccount: sc.SearchPerAccount})
	direct, err := crawler.NewDirect(platform, sc.SeedAccounts)
	if err != nil {
		return GPlusOutcome{}, nil, err
	}
	params := RunEnhanced.params(sc)
	params.SchoolName = world.Schools[0].Name
	res, err := core.Run(crawler.NewSession(direct), params)
	if err != nil {
		return GPlusOutcome{}, nil, err
	}
	truth := eval.NewGroundTruth(platform, 0)
	o := truth.Evaluate(res.Select(threshold, true))
	out := GPlusOutcome{
		FoundFrac:       o.FoundFrac(),
		FPRate:          o.FPRate(),
		CorrectYearFrac: o.CorrectYearFrac(),
	}
	tbl := &report.Table{
		Title:   fmt.Sprintf("Aux: attack under the Google+ policy (%s, t=%d)", sc.Label, threshold),
		Headers: []string{"metric", "value"},
	}
	tbl.AddRow("students found", report.Pct(out.FoundFrac))
	tbl.AddRow("false positives", report.Pct(out.FPRate))
	tbl.AddRow("correct grad year", report.Pct(out.CorrectYearFrac))
	return out, tbl, nil
}

// auxExperiments returns the registry entries for the extensions.
func auxExperiments() []Experiment {
	hs1 := HS1()
	return []Experiment{
		{
			ID:    "auxlinks",
			Title: "Extension: hidden minor-to-minor link inference via Jaccard (Sec 6.1 future work)",
			Run: func(l *Lab) (string, error) {
				_, tbl, err := AuxHiddenLinks(l, hs1)
				return render(tbl, err)
			},
		},
		{
			ID:    "auxgplus",
			Title: "Extension: the attack under the Google+ policy (appendix claim)",
			Run: func(l *Lab) (string, error) {
				_, tbl, err := AuxGooglePlus(l, hs1, 400)
				return render(tbl, err)
			},
		},
	}
}
