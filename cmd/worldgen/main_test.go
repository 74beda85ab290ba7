package main

import (
	"strings"
	"testing"
)

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		scenario         string
		schools, workers int
		want             string // substring of the error; "" means valid
	}{
		{"hs1", 3, 0, ""},
		{"tiny", 0, 0, ""}, // -schools only sizes city and metro
		{"city", 1, 0, ""},
		{"metro", 1200, 8, ""},
		{"hs1", 3, -3, "-workers"},
		{"metro", 4, -1, "-workers"},
		{"city", 0, 0, "-schools"},
		{"metro", -2, 4, "-schools"},
	} {
		err := validate(tc.scenario, tc.schools, tc.workers)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s -schools %d -workers %d: rejected: %v", tc.scenario, tc.schools, tc.workers, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s -schools %d -workers %d: error %v, want one naming %s", tc.scenario, tc.schools, tc.workers, err, tc.want)
		}
	}
}
