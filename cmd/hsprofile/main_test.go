package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestValidate(t *testing.T) {
	ok := attackFlags{school: "Oakfield High School", mode: "enhanced", accounts: 2, t: 400, epsilon: 1, workers: 1}
	for _, tc := range []struct {
		name string
		edit func(f *attackFlags)
		want []string // the flags the error names, one a line; none means valid
	}{
		{"defaults", func(*attackFlags) {}, nil},
		{"basic", func(f *attackFlags) { f.mode = "basic" }, nil},
		{"paced, budgeted, timed out", func(f *attackFlags) {
			f.workers, f.failureBudget, f.pace, f.reqTimeout = 4, 3, 20*time.Millisecond, time.Second
		}, nil},
		{"no school", func(f *attackFlags) { f.school = "" }, []string{"-school"}},
		{"mode typo", func(f *attackFlags) { f.mode = "enhnaced" }, []string{"-mode"}},
		{"no accounts", func(f *attackFlags) { f.accounts = 0 }, []string{"-accounts"}},
		{"t -1", func(f *attackFlags) { f.t = -1 }, []string{"-t"}},
		{"t -100000", func(f *attackFlags) { f.t = -100000 }, []string{"-t"}},
		{"epsilon NaN", func(f *attackFlags) { f.epsilon = math.NaN() }, []string{"-epsilon"}},
		{"epsilon +Inf", func(f *attackFlags) { f.epsilon = math.Inf(1) }, []string{"-epsilon"}},
		{"epsilon negative", func(f *attackFlags) { f.epsilon = -0.5 }, []string{"-epsilon"}},
		{"epsilon 0", func(f *attackFlags) { f.epsilon = 0 }, []string{"-epsilon"}},
		{"epsilon 1e-9", func(f *attackFlags) { f.epsilon = 1e-9 }, nil},
		{"no workers", func(f *attackFlags) { f.workers = 0 }, []string{"-workers"}},
		{"negative workers", func(f *attackFlags) { f.workers = -2 }, []string{"-workers"}},
		{"negative failure budget", func(f *attackFlags) { f.failureBudget = -1 }, []string{"-failure-budget"}},
		{"negative pace", func(f *attackFlags) { f.pace = -time.Millisecond }, []string{"-pace"}},
		{"negative req-timeout", func(f *attackFlags) { f.reqTimeout = -time.Second }, []string{"-req-timeout"}},
		{"every flag bad", func(f *attackFlags) {
			*f = attackFlags{mode: "x", accounts: -1, t: 0, epsilon: math.Inf(-1), workers: 0,
				failureBudget: -1, pace: -1, reqTimeout: -1}
		}, []string{"-school", "-mode", "-accounts", "-t", "-epsilon", "-workers", "-failure-budget", "-pace", "-req-timeout"}},
	} {
		f := ok
		tc.edit(&f)
		err := validate(f)
		if len(tc.want) == 0 {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted, want an error naming %v", tc.name, tc.want)
			continue
		}
		lines := strings.Split(err.Error(), "\n")
		if len(lines) != len(tc.want) {
			t.Errorf("%s: error %q, want one line for each of %v", tc.name, err, tc.want)
			continue
		}
		for i, flag := range tc.want {
			if !strings.HasPrefix(lines[i], flag+" ") {
				t.Errorf("%s: line %q, want one naming %s", tc.name, lines[i], flag)
			}
		}
	}
}
