package main

import (
	"errors"
	"fmt"
	"time"

	"hsprofiler/internal/osnhttp"
)

// servingFlags groups the flag values that shape the serving plane, split
// out of main so validation is table-testable. The platform's own
// withDefaults silently normalizes negatives for library callers; the
// daemon instead refuses to start — a typo'd deployment flag should be a
// loud failure, not a silently unlimited budget.
type servingFlags struct {
	SearchCap      int
	RequestBudget  int
	ThrottleLimit  int
	ThrottleWindow time.Duration
	FaultRate      float64
	Server         osnhttp.ServerConfig
	Evolve         evolveFlags
	Admin          adminFlags
}

// adminFlags shape the defender's watchtower: -admin turns on behavioral
// telemetry recording, the /api/v1/admin/telemetry endpoint, and the
// background aggregator.
type adminFlags struct {
	Enabled bool
	// TelemetryWindow is the per-account feature window; features
	// aggregate over the current + previous window.
	TelemetryWindow time.Duration
	// TelemetryRollup is the aggregator's publish interval.
	TelemetryRollup time.Duration
}

// evolveFlags shape the temporal loop: with -evolve the daemon advances the
// world one simulated year per interval and rotates the serving epoch.
type evolveFlags struct {
	Enabled  bool
	Interval time.Duration
	// Epochs bounds how many rotations run (0 = until shutdown).
	Epochs  int
	Workers int
	// OpenMinorSearchYear schedules the policy flip that opened minor
	// profiles to search: once the simulated year reaches it, the next
	// epoch builds with MinorsSearchable=true (0 = never).
	OpenMinorSearchYear int
}

// validate rejects every bad flag at once (joined errors) so a broken
// invocation reports the full list instead of one complaint per restart.
func (f servingFlags) validate() error {
	var errs []error
	if f.SearchCap < 0 {
		errs = append(errs, fmt.Errorf("-search-cap must be non-negative, got %d", f.SearchCap))
	}
	if f.RequestBudget < 0 {
		errs = append(errs, fmt.Errorf("-request-budget must be non-negative, got %d", f.RequestBudget))
	}
	if f.ThrottleLimit < 0 {
		errs = append(errs, fmt.Errorf("-throttle-limit must be non-negative, got %d", f.ThrottleLimit))
	}
	if f.ThrottleWindow <= 0 {
		errs = append(errs, fmt.Errorf("-throttle-window must be positive, got %v", f.ThrottleWindow))
	}
	if f.FaultRate < 0 || f.FaultRate > 1 {
		errs = append(errs, fmt.Errorf("-faults must be in [0,1], got %g", f.FaultRate))
	}
	if err := f.Server.WithDefaults().Validate(); err != nil {
		errs = append(errs, err)
	}
	if f.Admin.Enabled {
		if f.Admin.TelemetryWindow <= 0 {
			errs = append(errs, fmt.Errorf("-telemetry-window must be positive, got %v", f.Admin.TelemetryWindow))
		}
		if f.Admin.TelemetryRollup <= 0 {
			errs = append(errs, fmt.Errorf("-telemetry-rollup must be positive, got %v", f.Admin.TelemetryRollup))
		}
	}
	if f.Evolve.Enabled {
		if f.Evolve.Interval <= 0 {
			errs = append(errs, fmt.Errorf("-evolve-interval must be positive, got %v", f.Evolve.Interval))
		}
		if f.Evolve.Epochs < 0 {
			errs = append(errs, fmt.Errorf("-evolve-epochs must be non-negative (0 = until shutdown), got %d", f.Evolve.Epochs))
		}
		if f.Evolve.Workers < 1 {
			errs = append(errs, fmt.Errorf("-evolve-workers must be at least 1, got %d", f.Evolve.Workers))
		}
		if f.Evolve.OpenMinorSearchYear < 0 {
			errs = append(errs, fmt.Errorf("-evolve-open-minor-search must be a year (0 = never), got %d", f.Evolve.OpenMinorSearchYear))
		}
	}
	return errors.Join(errs...)
}
