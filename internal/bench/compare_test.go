package bench

import (
	"strings"
	"testing"
)

// sum builds a summary with a given median and interquartile range.
func sum(median, iqr float64) Summary {
	return Summary{N: 20, Min: median - iqr, Q1: median - iqr/2, Median: median, Q3: median + iqr/2, Max: median + iqr}
}

func TestJudge(t *testing.T) {
	lower := MetricDef{Name: "op_ms", Better: "lower", Bound: 0.10}
	higher := MetricDef{Name: "goodput_per_s", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name     string
		def      MetricDef
		old, cur Summary
		want     string
	}{
		{"unchanged", lower, sum(100, 4), sum(101, 4), VerdictOK},
		{"worse within bound", lower, sum(100, 4), sum(109, 4), VerdictOK},
		{"worse beyond bound", lower, sum(100, 4), sum(115, 4), VerdictRegressed},
		{"better", lower, sum(100, 4), sum(80, 4), VerdictOK},
		{"higher is better: drop beyond bound", higher, sum(100, 4), sum(85, 4), VerdictRegressed},
		{"higher is better: rise", higher, sum(100, 4), sum(130, 4), VerdictOK},
		{"noisy and overlapping", lower, sum(100, 30), sum(115, 30), VerdictUnresolved},
		{"noisy, within bound", lower, sum(100, 30), sum(102, 30), VerdictUnresolved},
		{"noisy but separated", lower, sum(100, 12), sum(140, 12), VerdictRegressed},
		{"noisy, every new sample better", lower, sum(100, 12), sum(60, 12), VerdictOK},
	} {
		if got := judge(tc.def, tc.old, tc.cur); got.Verdict != tc.want {
			t.Errorf("%s: %s (worse %+.3f), want %s", tc.name, got.Verdict, got.Worse, tc.want)
		}
	}
}

func artifact(nproc int, seed uint64, digest string, op Summary, ops, failed int) *Artifact {
	return &Artifact{
		Env:      Env{NumCPU: nproc, Seed: seed, BenchmarkDigest: digest},
		EndToEnd: []MetricDef{{Name: "op_ms", Unit: "ms", Better: "lower", Bound: 0.1}},
		Workloads: []WorkloadReport{{Name: AttackHS1, Untraced: &Result{
			Workload: AttackHS1, Ops: ops, OpsFailed: failed,
			Metrics: map[string]Summary{"op_ms": op},
		}}},
	}
}

func TestCompare(t *testing.T) {
	base := artifact(2, 2013, "d", sum(100, 4), 1000, 0)
	if _, regressed, err := Compare(base, artifact(2, 2013, "d", sum(103, 4), 1000, 0)); err != nil || regressed {
		t.Fatalf("same-commit compare: regressed %t, err %v", regressed, err)
	}
	vs, regressed, err := Compare(base, artifact(2, 2013, "d", sum(130, 4), 1000, 0))
	if err != nil || !regressed || len(vs) != 1 || vs[0].Verdict != VerdictRegressed {
		t.Fatalf("slower run: %+v regressed %t err %v", vs, regressed, err)
	}
	vs, regressed, _ = Compare(base, artifact(2, 2013, "d", sum(100, 4), 1000, 3))
	if !regressed || vs[len(vs)-1].Metric != "ops_failed" {
		t.Fatalf("a higher failed share must regress: %+v", vs)
	}
	for _, tc := range []struct {
		cur  *Artifact
		want string
	}{
		{artifact(4, 2013, "d", sum(100, 4), 1000, 0), "CPUs"},
		{artifact(2, 7, "d", sum(100, 4), 1000, 0), "seeds"},
		{artifact(2, 2013, "e", sum(100, 4), 1000, 0), BenchmarkFile},
	} {
		if _, _, err := Compare(base, tc.cur); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("want a refusal mentioning %q, got %v", tc.want, err)
		}
	}
}

// A rotate-metro run whose readers lost a few points of on-time share
// regresses, although goodput's shared bound would let it pass.
func TestCompareWorkloadGate(t *testing.T) {
	rotate := func(ontime Summary) *Artifact {
		a := artifact(2, 2013, "d", sum(100, 4), 1000, 0)
		a.Workloads[0].Name = RotateMetro
		a.Workloads[0].Untraced.Metrics[MetricReadOnTime] = ontime
		return a
	}
	base := rotate(sum(96, 0.6))
	if _, regressed, _ := Compare(base, rotate(sum(95.5, 0.6))); regressed {
		t.Fatal("half a point of on-time share must not regress")
	}
	vs, regressed, _ := Compare(base, rotate(sum(92, 0.6)))
	if !regressed || vs[len(vs)-1].Metric != MetricReadOnTime || vs[len(vs)-1].Verdict != VerdictRegressed {
		t.Fatalf("four points fewer reads on time must regress: %+v", vs)
	}
	// An artifact from before the gate existed has nothing to judge it by.
	old := artifact(2, 2013, "d", sum(100, 4), 1000, 0)
	old.Workloads[0].Name = RotateMetro
	if _, regressed, _ := Compare(old, rotate(sum(50, 0.6))); regressed {
		t.Fatal("a gate the old artifact lacks must be skipped")
	}
}
