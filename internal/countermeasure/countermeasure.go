// Package countermeasure implements Section 8 of the paper: evaluating the
// one defence the authors analyze — disabling reverse lookup, so that a
// user whose friend list is hidden from strangers also never appears inside
// other users' visible friend lists.
package countermeasure

import (
	"hsprofiler/internal/core"
	"hsprofiler/internal/crawler"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/worldgen"
)

// Runner abstracts how the two attack runs are evaluated; the experiments
// package supplies ground truth, and tests can inject their own.
type Runner struct {
	// World is the generated society under study.
	World *worldgen.World
	// OSNConfig configures both platforms identically.
	OSNConfig osn.Config
	// Accounts is the fake-account count per run.
	Accounts int
	// AttackParams configures both attack runs; SchoolName and
	// CurrentYear must be set (MaxThreshold should cover the sweep).
	AttackParams core.Params
}

// RunBoth executes the attack twice over the same world: once under the
// normal policy and once with HiddenListsInReverseLookup disabled. It
// returns both results along with the platforms (for evaluation).
func (r *Runner) RunBoth() (baselinePlat, protectedPlat *osn.Platform, baseline, protected *core.Result, err error) {
	run := func(pol *osn.Policy) (*osn.Platform, *core.Result, error) {
		plat := osn.NewPlatform(r.World, pol, r.OSNConfig)
		d, err := crawler.NewDirect(plat, r.Accounts)
		if err != nil {
			return nil, nil, err
		}
		res, err := core.Run(crawler.NewSession(d), r.AttackParams)
		if err != nil {
			return nil, nil, err
		}
		return plat, res, nil
	}
	baselinePlat, baseline, err = run(osn.Facebook())
	if err != nil {
		return nil, nil, nil, nil, err
	}
	pol := osn.Facebook()
	pol.HiddenListsInReverseLookup = false
	protectedPlat, protected, err = run(pol)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return baselinePlat, protectedPlat, baseline, protected, nil
}
