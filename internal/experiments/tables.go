package experiments

import (
	"context"
	"fmt"

	"hsprofiler/internal/core"
	"hsprofiler/internal/extend"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/report"
)

// check renders a policy-matrix cell the way the paper's tables do.
func check(b bool) string {
	if b {
		return "x"
	}
	return ""
}

// policyTable renders a Policy as the paper's Table 1/Table 6 matrix.
func policyTable(pol *osn.Policy, title string) *report.Table {
	t := &report.Table{
		Title: title,
		Headers: []string{
			"Information", "Default Reg. Minors", "Default Reg. Adults",
			"Worst-case Reg. Minors", "Worst-case Reg. Adults",
		},
	}
	for _, row := range pol.Matrix() {
		t.AddRow(row.Label, check(row.DefaultMinor), check(row.DefaultAdult),
			check(row.WorstCaseMinor), check(row.WorstCaseAdult))
	}
	return t
}

// Table1 reproduces Table 1: Facebook's default and worst-case information
// available to strangers.
func Table1() *report.Table {
	return policyTable(osn.Facebook(), "Table 1: Facebook visibility to strangers")
}

// Table6 reproduces the appendix's Table 6 for Google+.
func Table6() *report.Table {
	return policyTable(osn.GooglePlus(), "Table 6: Google+ visibility to strangers")
}

// Table2Row is one school's seed/core/candidate census.
type Table2Row struct {
	Label         string
	Students      int
	StudentsOnOSN int // -1 when unknown to the evaluation (HS2/HS3 regime)
	Seeds         int
	CoreUsers     int
	Candidates    int
	ExtendedCore  int
}

// Table2 reproduces Table 2: seeds, core users and candidates per school.
func Table2(l *Lab, scenarios []Scenario) ([]Table2Row, *report.Table, error) {
	t := &report.Table{
		Title: "Table 2: Seeds, core users, and candidates",
		Headers: []string{
			"High school", "# students", "# on Facebook", "# seeds",
			"# core users", "# candidates", "# extended core",
		},
	}
	var rows []Table2Row
	for _, sc := range scenarios {
		basic, err := l.Run(sc, RunBasic)
		if err != nil {
			return nil, nil, err
		}
		enh, err := l.Run(sc, RunEnhanced)
		if err != nil {
			return nil, nil, err
		}
		truth, err := l.Truth(sc)
		if err != nil {
			return nil, nil, err
		}
		world, err := l.World(sc)
		if err != nil {
			return nil, nil, err
		}
		row := Table2Row{
			Label:         sc.Label,
			Students:      len(world.Roster(0)),
			StudentsOnOSN: truth.M(),
			Seeds:         len(basic.Seeds),
			CoreUsers:     basic.SeedCoreSize,
			Candidates:    basic.CandidateCount(),
			ExtendedCore:  enh.ExtendedCoreSize,
		}
		onOSN := fmt.Sprintf("%d", row.StudentsOnOSN)
		if !sc.FullGroundTruth {
			// The paper reports N/A for HS2/HS3, where the roster was
			// unavailable; mirror that in the rendered table.
			row.StudentsOnOSN = -1
			onOSN = "N/A"
		}
		rows = append(rows, row)
		t.AddRow(row.Label, row.Students, onOSN, row.Seeds, row.CoreUsers,
			row.Candidates, row.ExtendedCore)
	}
	return rows, t, nil
}

// Table3Row is one school's measurement effort, in HTTP GETs actually
// issued against the simulator's HTTP server.
type Table3Row struct {
	Label          string
	Accounts       int
	SeedRequests   int
	ProfilePages   int
	FriendListGETs int
	TotalBasic     int
	TotalEnhanced  int
}

// Table3 reproduces Table 3: measurement effort. The basic columns come
// from the plain §4.1 run; the enhanced total from the §4.3 run.
func Table3(l *Lab, scenarios []Scenario) ([]Table3Row, *report.Table, error) {
	t := &report.Table{
		Title: "Table 3: Measurement effort (HTTP GETs)",
		Headers: []string{
			"High school", "Accounts", "Seed requests", "Profile pages",
			"Friend-list requests", "Total basic", "Total enhanced",
		},
	}
	var rows []Table3Row
	for _, sc := range scenarios {
		basic, err := l.Run(sc, RunBasic)
		if err != nil {
			return nil, nil, err
		}
		enh, err := l.Run(sc, RunEnhanced)
		if err != nil {
			return nil, nil, err
		}
		row := Table3Row{
			Label:          sc.Label,
			Accounts:       sc.SeedAccounts,
			SeedRequests:   basic.Effort.SeedRequests,
			ProfilePages:   basic.Effort.ProfileRequests,
			FriendListGETs: basic.Effort.FriendListRequests,
			TotalBasic:     basic.Effort.Total(),
			TotalEnhanced:  enh.Effort.Total(),
		}
		rows = append(rows, row)
		t.AddRow(row.Label, row.Accounts, row.SeedRequests, row.ProfilePages,
			row.FriendListGETs, row.TotalBasic, row.TotalEnhanced)
	}
	return rows, t, nil
}

// Table4Cell is the paper's x/y notation: students found / of those,
// classified in the correct year.
type Table4Cell struct {
	Threshold   int
	Found       int
	CorrectYear int
}

// Table4Row is one methodology variant's sweep.
type Table4Row struct {
	Variant string
	Cells   []Table4Cell
}

// Table4 reproduces Table 4: results for the full-ground-truth school
// under {basic, enhanced} × {with, without filtering} at each threshold.
func Table4(l *Lab, sc Scenario) ([]Table4Row, *report.Table, error) {
	truth, err := l.Truth(sc)
	if err != nil {
		return nil, nil, err
	}
	basic, err := l.Run(sc, RunBasicProfiles)
	if err != nil {
		return nil, nil, err
	}
	enh, err := l.Run(sc, RunEnhanced)
	if err != nil {
		return nil, nil, err
	}
	variants := []struct {
		name      string
		res       *core.Result
		filtering bool
	}{
		{"Basic methodology without filtering", basic, false},
		{"Basic methodology with filtering", basic, true},
		{"Enhanced methodology without filtering", enh, false},
		{"Enhanced methodology with filtering", enh, true},
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Table 4: Results for %s (%d Facebook users)", sc.Label, truth.M()),
		Headers: []string{"Methodology"},
	}
	for _, th := range sc.TableThresholds {
		t.Headers = append(t.Headers, fmt.Sprintf("Top %d", th))
	}
	var rows []Table4Row
	for _, v := range variants {
		row := Table4Row{Variant: v.name}
		cells := []any{v.name}
		for _, th := range sc.TableThresholds {
			o := truth.Evaluate(v.res.Select(th, v.filtering))
			row.Cells = append(row.Cells, Table4Cell{Threshold: th, Found: o.Found, CorrectYear: o.CorrectYear})
			cells = append(cells, fmt.Sprintf("%d/%d", o.Found, o.CorrectYear))
		}
		rows = append(rows, row)
		t.AddRow(cells...)
	}
	return rows, t, nil
}

// Table5Column is one school's §6.2 profile-extension statistics, plus the
// §6.1 reverse-lookup average for registered minors.
type Table5Column struct {
	Label string
	Stats extend.AdultMinorStats
	// AvgRecoveredFriends is the §6.1 statistic (paper: 38/141/129).
	AvgRecoveredFriends float64
	// MinorDossiers is how many registered-minor extended profiles were
	// assembled.
	MinorDossiers int
}

// Table5 reproduces Table 5 (extending profiles of minors registered as
// adults) and folds in §6.1's reverse-lookup statistic. The selection uses
// the enhanced methodology with filtering at t ≈ school size, as §6
// operates on the inferred student sets.
func Table5(l *Lab, scenarios []Scenario) ([]Table5Column, *report.Table, error) {
	var cols []Table5Column
	for _, sc := range scenarios {
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
		cols = append(cols, Table5Column{
			Label:               sc.Label,
			Stats:               dossier.AdultMinorTable(sel, sc.CurrentYear()),
			AvgRecoveredFriends: dossier.AvgRecoveredFriends(sel),
			MinorDossiers:       len(dossier.MinorProfiles(sel, res.School)),
		})
	}
	t := &report.Table{
		Title:   "Table 5: Extending the profile for minors registered as adults",
		Headers: []string{"Attribute"},
	}
	for _, c := range cols {
		t.Headers = append(t.Headers, c.Label)
	}
	addRow := func(label string, f func(Table5Column) string) {
		cells := []any{label}
		for _, c := range cols {
			cells = append(cells, f(c))
		}
		t.AddRow(cells...)
	}
	addRow("# minors registered as adults", func(c Table5Column) string { return fmt.Sprintf("%d", c.Stats.Count) })
	addRow("entire friend list public", func(c Table5Column) string { return report.Pct(c.Stats.FriendListPublic) })
	addRow("avg # friends (public lists)", func(c Table5Column) string { return report.FormatFloat(c.Stats.AvgFriendsPublic) })
	addRow("public search enabled", func(c Table5Column) string { return report.Pct(c.Stats.PublicSearch) })
	addRow("Message link", func(c Table5Column) string { return report.Pct(c.Stats.MessageLink) })
	addRow("relationship info", func(c Table5Column) string { return report.Pct(c.Stats.Relationship) })
	addRow("interested in", func(c Table5Column) string { return report.Pct(c.Stats.InterestedIn) })
	addRow("birthday", func(c Table5Column) string { return report.Pct(c.Stats.Birthday) })
	addRow("average # of photos shared", func(c Table5Column) string { return report.FormatFloat(c.Stats.AvgPhotos) })
	addRow("avg reverse-lookup friends per reg. minor (Sec 6.1)", func(c Table5Column) string {
		return report.FormatFloat(c.AvgRecoveredFriends)
	})
	addRow("registered-minor dossiers built", func(c Table5Column) string { return fmt.Sprintf("%d", c.MinorDossiers) })
	return cols, t, nil
}
