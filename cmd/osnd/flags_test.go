package main

import (
	"strings"
	"testing"
	"time"

	"hsprofiler/internal/osnhttp"
)

// goodFlags is a baseline invocation that must validate.
func goodFlags() servingFlags {
	return servingFlags{
		SearchCap:      400,
		RequestBudget:  0,
		ThrottleLimit:  0,
		ThrottleWindow: 15 * time.Minute,
		FaultRate:      0,
		Server:         osnhttp.DefaultServerConfig(),
	}
}

func TestServingFlagsValidate(t *testing.T) {
	if err := goodFlags().validate(); err != nil {
		t.Fatalf("baseline flags rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*servingFlags)
		want string
	}{
		{"negative search cap", func(f *servingFlags) { f.SearchCap = -1 }, "-search-cap"},
		{"negative request budget", func(f *servingFlags) { f.RequestBudget = -5 }, "-request-budget"},
		{"negative throttle limit", func(f *servingFlags) { f.ThrottleLimit = -2 }, "-throttle-limit"},
		{"zero throttle window", func(f *servingFlags) { f.ThrottleWindow = 0 }, "-throttle-window"},
		{"negative throttle window", func(f *servingFlags) { f.ThrottleWindow = -time.Second }, "-throttle-window"},
		{"fault rate above 1", func(f *servingFlags) { f.FaultRate = 1.5 }, "-faults"},
		{"negative fault rate", func(f *servingFlags) { f.FaultRate = -0.1 }, "-faults"},
		{"negative server timeout", func(f *servingFlags) { f.Server.ReadTimeout = -time.Second }, "read timeout"},
		{"negative inflight cap", func(f *servingFlags) { f.Server.SearchInflight = -8 }, "search inflight"},
	}
	for _, tc := range cases {
		f := goodFlags()
		tc.mut(&f)
		err := f.validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestServingFlagsJoinAll checks a pile of bad flags is reported in one
// pass, not one complaint per restart.
func TestServingFlagsJoinAll(t *testing.T) {
	f := goodFlags()
	f.SearchCap = -1
	f.ThrottleWindow = 0
	f.FaultRate = 2
	f.Server.WriteTimeout = -1
	err := f.validate()
	if err == nil {
		t.Fatal("accepted")
	}
	for _, want := range []string{"-search-cap", "-throttle-window", "-faults", "write timeout"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error lost %q: %v", want, err)
		}
	}
}

// TestServingFlagsZeroServerConfig checks an all-zero ServerConfig (flags
// left at package defaults elsewhere) is filled rather than rejected.
func TestServingFlagsZeroServerConfig(t *testing.T) {
	f := goodFlags()
	f.Server = osnhttp.ServerConfig{}
	if err := f.validate(); err != nil {
		t.Fatalf("zero ServerConfig rejected (WithDefaults not applied): %v", err)
	}
}

func TestAdminFlagsValidate(t *testing.T) {
	f := goodFlags()
	f.Admin = adminFlags{Enabled: true, TelemetryWindow: time.Minute, TelemetryRollup: 10 * time.Second}
	if err := f.validate(); err != nil {
		t.Fatalf("baseline admin flags rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*servingFlags)
		want string
	}{
		{"zero window", func(f *servingFlags) { f.Admin.TelemetryWindow = 0 }, "-telemetry-window"},
		{"negative window", func(f *servingFlags) { f.Admin.TelemetryWindow = -time.Second }, "-telemetry-window"},
		{"zero rollup", func(f *servingFlags) { f.Admin.TelemetryRollup = 0 }, "-telemetry-rollup"},
	}
	for _, tc := range cases {
		f := goodFlags()
		f.Admin = adminFlags{Enabled: true, TelemetryWindow: time.Minute, TelemetryRollup: 10 * time.Second}
		tc.mut(&f)
		err := f.validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// Admin disabled: the sub-flags are ignored, not validated.
	f = goodFlags()
	f.Admin = adminFlags{Enabled: false, TelemetryWindow: 0, TelemetryRollup: 0}
	if err := f.validate(); err != nil {
		t.Fatalf("disabled admin flags validated anyway: %v", err)
	}
}

// goodEvolveFlags is a baseline -evolve invocation.
func goodEvolveFlags() servingFlags {
	f := goodFlags()
	f.Evolve = evolveFlags{Enabled: true, Interval: 30 * time.Second, Epochs: 3, Workers: 4}
	return f
}

func TestEvolveFlagsValidate(t *testing.T) {
	if err := goodEvolveFlags().validate(); err != nil {
		t.Fatalf("baseline evolve flags rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*servingFlags)
		want string
	}{
		{"zero interval", func(f *servingFlags) { f.Evolve.Interval = 0 }, "-evolve-interval"},
		{"negative interval", func(f *servingFlags) { f.Evolve.Interval = -time.Second }, "-evolve-interval"},
		{"negative epochs", func(f *servingFlags) { f.Evolve.Epochs = -1 }, "-evolve-epochs"},
		{"zero workers", func(f *servingFlags) { f.Evolve.Workers = 0 }, "-evolve-workers"},
		{"negative flip year", func(f *servingFlags) { f.Evolve.OpenMinorSearchYear = -2013 }, "-evolve-open-minor-search"},
	}
	for _, tc := range cases {
		f := goodEvolveFlags()
		tc.mut(&f)
		err := f.validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// Evolve disabled: the sub-flags are ignored, not validated.
	f := goodFlags()
	f.Evolve = evolveFlags{Enabled: false, Interval: 0, Workers: 0}
	if err := f.validate(); err != nil {
		t.Fatalf("disabled evolve flags validated anyway: %v", err)
	}
}
