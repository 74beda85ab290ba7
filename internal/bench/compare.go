package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// Verdicts of a comparison.
const (
	VerdictOK         = "ok"
	VerdictRegressed  = "regressed"
	VerdictUnresolved = "unresolved"
)

// WorkloadGates are metrics that -compare gates on one workload besides
// the end-to-end metrics BENCHMARK.json lists. BENCHMARK.json gives each
// metric one bound for every workload, and no such bound resolves what
// rotation costs readers: 0.25 on goodput_per_s lets rotate-metro's
// on-time share fall from ~96% to ~72%. So the share is a metric of
// rotate-metro's own, one sample per repetition, gated at 2% of its median
// (about 2 points); across ten seeds the run medians spread by about 1%.
// A result keeps these in Metrics beside the end-to-end ones.
var WorkloadGates = map[string][]MetricDef{
	RotateMetro: {{Name: MetricReadOnTime, Unit: "%", Better: "higher", Bound: 0.02}},
}

// MetricReadOnTime is the share of rotate-metro's due reads answered OK
// within 5 ms of their due time during the timed years.
const MetricReadOnTime = "rotate_read_ontime_pct"

// Verdict is one (workload, end-to-end metric) comparison.
type Verdict struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Old      Summary `json:"old"`
	New      Summary `json:"new"`
	Bound    float64 `json:"bound"`
	// Worse is how much worse the new median is, as a share of the old one
	// (negative when it improved).
	Worse   float64 `json:"worse"`
	Verdict string  `json:"verdict"`
}

// judge applies the regression rule to one metric. A median worse by more
// than the bound regresses, unless the run-to-run spread (IQR over median,
// on either side) also exceeds the bound and the two runs' interquartile
// ranges overlap: then the runs cannot tell, and the metric is unresolved.
// A spread wider than the bound leaves a metric unresolved even when its
// median is within the bound, unless every sample of the new run reads
// better than every sample of the old one.
func judge(def MetricDef, old, cur Summary) Verdict {
	v := Verdict{Metric: def.Name, Old: old, New: cur, Bound: def.Bound}
	sign := 1.0
	if def.Better == "higher" {
		sign = -1
	}
	if old.Median != 0 {
		v.Worse = sign * (cur.Median - old.Median) / old.Median
	}
	noisy := old.Spread() > def.Bound || cur.Spread() > def.Bound
	overlap := cur.Q1 <= old.Q3 && old.Q1 <= cur.Q3
	allBetter := (sign > 0 && cur.Max < old.Min) || (sign < 0 && cur.Min > old.Max)
	switch {
	case v.Worse > def.Bound && !(noisy && overlap):
		v.Verdict = VerdictRegressed
	case noisy && !allBetter:
		v.Verdict = VerdictUnresolved
	default:
		v.Verdict = VerdictOK
	}
	return v
}

// ReadArtifact loads an artifact file.
func ReadArtifact(path string) (*Artifact, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Artifact
	if err := json.Unmarshal(raw, &a); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return &a, nil
}

// Compare judges every end-to-end metric of every workload the two
// artifacts share, the workload's gates in WorkloadGates where the old
// artifact has them too, and each workload's failed-operation share. It refuses
// artifacts measured on different CPU counts, with different seeds, or
// under different BENCHMARK.json files. regressed is true when any metric
// regressed or a workload failed a larger share of its operations.
func Compare(old, cur *Artifact) (verdicts []Verdict, regressed bool, err error) {
	switch {
	case old.Env.NumCPU != cur.Env.NumCPU:
		return nil, false, fmt.Errorf("bench: artifacts ran on %d and %d CPUs; not comparable", old.Env.NumCPU, cur.Env.NumCPU)
	case old.Env.Seed != cur.Env.Seed:
		return nil, false, fmt.Errorf("bench: artifacts ran with seeds %d and %d; not comparable", old.Env.Seed, cur.Env.Seed)
	case old.Env.BenchmarkDigest != cur.Env.BenchmarkDigest:
		return nil, false, fmt.Errorf("bench: artifacts ran under different %s files; not comparable", BenchmarkFile)
	}
	olds := make(map[string]*Result)
	for _, w := range old.Workloads {
		olds[w.Name] = w.Untraced
	}
	for _, w := range cur.Workloads {
		o, n := olds[w.Name], w.Untraced
		if o == nil || n == nil {
			continue
		}
		for _, def := range slices.Concat(cur.EndToEnd, WorkloadGates[w.Name]) {
			if o.Metrics[def.Name].N == 0 {
				continue
			}
			v := judge(def, o.Metrics[def.Name], n.Metrics[def.Name])
			v.Workload = w.Name
			regressed = regressed || v.Verdict == VerdictRegressed
			verdicts = append(verdicts, v)
		}
		if failShare(n) > failShare(o) {
			regressed = true
			verdicts = append(verdicts, Verdict{Workload: w.Name, Metric: "ops_failed", Verdict: VerdictRegressed,
				Old: Summary{N: 1, Median: failShare(o)}, New: Summary{N: 1, Median: failShare(n)}})
		}
	}
	return verdicts, regressed, nil
}

func failShare(r *Result) float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.OpsFailed) / float64(r.Ops)
}

// PrintVerdicts writes one line per verdict.
func PrintVerdicts(w io.Writer, vs []Verdict) {
	for _, v := range vs {
		fmt.Fprintf(w, "%-16s %-16s %-10s old %12.4f  new %12.4f  worse %+7.2f%%  bound %5.1f%%  spread %5.1f%%/%5.1f%%\n",
			v.Workload, v.Metric, v.Verdict, v.Old.Median, v.New.Median, 100*v.Worse, 100*v.Bound,
			100*v.Old.Spread(), 100*v.New.Spread())
	}
}
