package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"hsprofiler/internal/obs"
)

// event is one parsed line of the JSONL event log. The envelope fields are
// lifted out; everything else stays in Fields.
type event struct {
	Line   int
	Time   string
	Level  string
	Cat    string
	Msg    string
	Trace  string
	Span   int
	Fields map[string]any
}

// f returns a float field (JSON numbers decode as float64), with ok=false
// when absent or non-numeric.
func (e event) f(key string) (float64, bool) {
	v, ok := e.Fields[key].(float64)
	return v, ok
}

// s returns a string field ("" when absent).
func (e event) s(key string) string {
	v, _ := e.Fields[key].(string)
	return v
}

func readManifest(path string) (*obs.Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m obs.Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("parsing manifest %s: %w", path, err)
	}
	return &m, nil
}

func readEvents(path string) ([]event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseEvents(f)
}

func parseEvents(r io.Reader) ([]event, error) {
	var out []event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var raw map[string]any
		if err := json.Unmarshal([]byte(line), &raw); err != nil {
			return nil, fmt.Errorf("event log line %d is not valid JSON: %w", lineNo, err)
		}
		e := event{Line: lineNo, Fields: raw}
		e.Time, _ = raw["t"].(string)
		e.Level, _ = raw["lvl"].(string)
		e.Cat, _ = raw["cat"].(string)
		e.Msg, _ = raw["msg"].(string)
		e.Trace, _ = raw["trace"].(string)
		if v, ok := raw["span"].(float64); ok {
			e.Span = int(v)
		}
		for _, k := range []string{"t", "lvl", "cat", "msg", "trace", "span"} {
			delete(raw, k)
		}
		out = append(out, e)
	}
	return out, sc.Err()
}

// report renders the merged run report.
func report(w io.Writer, m *obs.Manifest, events []event, topK int) error {
	header(w, m)
	params(w, m)
	phases(w, m)
	quantiles(w, m)
	accounting(w, m, events)
	epochs(w, m, events)
	slowest(w, events, topK)
	wire(w, events, topK)
	defender(w, events)
	tables(w, m)
	return nil
}

func header(w io.Writer, m *obs.Manifest) {
	fmt.Fprintf(w, "run report: %s", m.Tool)
	if m.Scenario != "" {
		fmt.Fprintf(w, " — %s", m.Scenario)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  build:    %s\n", m.GitDescribe)
	fmt.Fprintf(w, "  started:  %s\n", m.StartedAt.Format("2006-01-02 15:04:05 MST"))
	if !m.FinishedAt.IsZero() {
		fmt.Fprintf(w, "  duration: %s\n", m.FinishedAt.Sub(m.StartedAt).Round(1e6))
	}
	if m.DroppedSpans > 0 {
		fmt.Fprintf(w, "  note: trace dropped %d spans over its cap\n", m.DroppedSpans)
	}
}

func params(w io.Writer, m *obs.Manifest) {
	if len(m.Params) == 0 {
		return
	}
	fmt.Fprintln(w, "\nparameters:")
	keys := make([]string, 0, len(m.Params))
	for k := range m.Params {
		if strings.HasPrefix(k, "result_") {
			continue // results are reported in the tables section
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-16s %v\n", k, m.Params[k])
	}
}

func phases(w io.Writer, m *obs.Manifest) {
	if len(m.Phases) == 0 {
		return
	}
	fmt.Fprintln(w, "\nphases:")
	var walk func(ps []obs.Phase, depth int)
	walk = func(ps []obs.Phase, depth int) {
		for _, p := range ps {
			fmt.Fprintf(w, "  %s%-*s %9.1f ms  (at +%.1f ms", strings.Repeat("  ", depth),
				28-2*depth, p.Name, p.DurationMS, p.StartMS)
			if p.SpanID > 0 {
				fmt.Fprintf(w, ", span %d", p.SpanID)
			}
			fmt.Fprintln(w, ")")
			// Per-request child spans can number in the thousands; summarize
			// below a depth instead of flooding the report.
			if depth >= 1 && len(p.Children) > 5 {
				fmt.Fprintf(w, "  %s… %d child spans\n", strings.Repeat("  ", depth+1), len(p.Children))
				continue
			}
			walk(p.Children, depth+1)
		}
	}
	walk(m.Phases, 0)
}

func quantiles(w io.Writer, m *obs.Manifest) {
	if m.Metrics == nil || len(m.Metrics.Histograms) == 0 {
		return
	}
	fmt.Fprintln(w, "\nlatency quantiles:")
	names := make([]string, 0, len(m.Metrics.Histograms))
	for name := range m.Metrics.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %-44s %8s %9s %9s %9s\n", "histogram", "count", "p50", "p95", "p99")
	for _, name := range names {
		h := m.Metrics.Histograms[name]
		if h.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-44s %8d %7.2fms %7.2fms %7.2fms\n", name, h.Count,
			h.Quantile(0.50)*1000, h.Quantile(0.95)*1000, h.Quantile(0.99)*1000)
	}
}

func accounting(w io.Writer, m *obs.Manifest, events []event) {
	if len(events) == 0 {
		return
	}
	byCat := map[string]int{}
	byLevel := map[string]int{}
	faultKinds := map[string]int{}
	retryClasses := map[string]int{}
	for _, e := range events {
		byCat[e.Cat]++
		byLevel[e.Level]++
		if e.Cat == "faults" && e.Msg == "fault injected" {
			faultKinds[e.s("kind")]++
		}
		if e.Cat == "crawl" && e.Msg == "retry" {
			retryClasses[e.s("class")]++
		}
	}
	fmt.Fprintf(w, "\nevents: %d total\n", len(events))
	fmt.Fprintf(w, "  by category: %s\n", countMap(byCat))
	fmt.Fprintf(w, "  by level:    %s\n", countMap(byLevel))
	if len(faultKinds) > 0 {
		fmt.Fprintf(w, "  faults injected: %s\n", countMap(faultKinds))
	}
	if len(retryClasses) > 0 {
		fmt.Fprintf(w, "  retries by class: %s\n", countMap(retryClasses))
	}
	if n := countMap(suspensionTally(events)); n != "" {
		fmt.Fprintf(w, "  account suspensions seen: %s\n", n)
	}
}

// epochs renders the temporal story of a run against an evolving platform:
// the epoch-advance timeline (from the platform's "osn.epoch" events) and
// every epoch-stamped event — the server's access log carries the serving
// epoch id — tallied per epoch, so a longitudinal run reads as a sequence
// of per-epoch workloads instead of one undifferentiated stream. Static
// runs emit neither, and the section disappears.
func epochs(w io.Writer, m *obs.Manifest, events []event) {
	type advance struct {
		epoch, year, users, edges int
		buildMS                   float64
		swapMS                    float64
		hasSwap                   bool
		incremental               bool
		dirtyProfiles, dirtyRows  int
		profMS, idxMS             float64
	}
	var advances []advance
	retired := 0
	perEpoch := map[int]map[string]int{}
	for _, e := range events {
		if e.Cat == "osn.epoch" {
			switch e.Msg {
			case "epoch advanced":
				a := advance{}
				if v, ok := e.f("epoch"); ok {
					a.epoch = int(v)
				}
				if v, ok := e.f("year"); ok {
					a.year = int(v)
				}
				if v, ok := e.f("users"); ok {
					a.users = int(v)
				}
				if v, ok := e.f("edges"); ok {
					a.edges = int(v)
				}
				a.buildMS, _ = e.f("build")
				a.swapMS, a.hasSwap = e.f("swap")
				a.incremental, _ = e.Fields["incremental"].(bool)
				if v, ok := e.f("dirty_profiles"); ok {
					a.dirtyProfiles = int(v)
				}
				if v, ok := e.f("dirty_rows"); ok {
					a.dirtyRows = int(v)
				}
				a.profMS, _ = e.f("profiles")
				a.idxMS, _ = e.f("indexes")
				advances = append(advances, a)
			case "epoch retired":
				retired++
			}
			continue
		}
		if v, ok := e.f("epoch"); ok {
			id := int(v)
			if perEpoch[id] == nil {
				perEpoch[id] = map[string]int{}
			}
			perEpoch[id][e.Cat]++
		}
	}
	if len(advances) == 0 && len(perEpoch) == 0 {
		return
	}
	fmt.Fprintln(w, "\nepochs:")
	if n := prefixSum(m, "osn_epoch_advances_total"); n > 0 || len(advances) > 0 {
		if n == 0 {
			n = float64(len(advances))
		}
		fmt.Fprintf(w, "  advances: %.0f (%d retired after drain)\n", n, retired)
	}
	for _, a := range advances {
		fmt.Fprintf(w, "    epoch %d: year %d, %d users / %d edges, built in %.1f ms",
			a.epoch, a.year, a.users, a.edges, a.buildMS)
		// Logs from before the build/swap split carry no swap field; the
		// base line alone keeps old artefacts readable.
		if a.hasSwap {
			fmt.Fprintf(w, ", swapped in %.2f ms", a.swapMS)
		}
		fmt.Fprintln(w)
		if a.incremental {
			fmt.Fprintf(w, "      incremental: %d dirty profiles, %d dirty CSR rows (profiles %.1f ms, indexes %.1f ms)\n",
				a.dirtyProfiles, a.dirtyRows, a.profMS, a.idxMS)
		}
	}
	if len(perEpoch) == 0 {
		return
	}
	ids := make([]int, 0, len(perEpoch))
	for id := range perEpoch {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	fmt.Fprintln(w, "  events by serving epoch:")
	for _, id := range ids {
		total := 0
		for _, n := range perEpoch[id] {
			total += n
		}
		fmt.Fprintf(w, "    epoch %d: %d events (%s)\n", id, total, countMap(perEpoch[id]))
	}
}

func suspensionTally(events []event) map[string]int {
	out := map[string]int{}
	for _, e := range events {
		if e.Msg == "account suspended" {
			out["platform"]++
		}
		if e.Msg == "account suspended, rotating" {
			out["crawler"]++
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func countMap(m map[string]int) string {
	if len(m) == 0 {
		return ""
	}
	type kv struct {
		k string
		v int
	}
	kvs := make([]kv, 0, len(m))
	for k, v := range m {
		kvs = append(kvs, kv{k, v})
	}
	sort.Slice(kvs, func(i, j int) bool {
		if kvs[i].v != kvs[j].v {
			return kvs[i].v > kvs[j].v
		}
		return kvs[i].k < kvs[j].k
	})
	parts := make([]string, len(kvs))
	for i, e := range kvs {
		parts[i] = fmt.Sprintf("%s %d", e.k, e.v)
	}
	return strings.Join(parts, ", ")
}

// slowest lists the top-K events carrying a latency ("ms") field — the
// crawl session's per-request completions and the server's access log — each with
// the chain of other events sharing its span, the request's full story.
func slowest(w io.Writer, events []event, topK int) {
	type timed struct {
		e  event
		ms float64
	}
	var reqs []timed
	bySpan := map[int][]event{}
	for _, e := range events {
		if e.Span > 0 {
			bySpan[e.Span] = append(bySpan[e.Span], e)
		}
		if ms, ok := e.f("ms"); ok {
			reqs = append(reqs, timed{e, ms})
		}
	}
	if len(reqs) == 0 || topK <= 0 {
		return
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].ms > reqs[j].ms })
	if topK > len(reqs) {
		topK = len(reqs)
	}
	fmt.Fprintf(w, "\nslowest requests (top %d of %d):\n", topK, len(reqs))
	for _, r := range reqs[:topK] {
		label := r.e.s("key")
		if label == "" {
			label = r.e.s("path")
		}
		if label == "" {
			label = r.e.s("endpoint")
		}
		fmt.Fprintf(w, "  %8.2f ms  %-40s", r.ms, label)
		if r.e.Span > 0 {
			fmt.Fprintf(w, " (span %d)", r.e.Span)
		}
		fmt.Fprintln(w)
		if r.e.Span <= 0 {
			continue
		}
		for _, ce := range bySpan[r.e.Span] {
			if ce.Line == r.e.Line {
				continue
			}
			fmt.Fprintf(w, "              └ [%s] %s/%s", ce.Level, ce.Cat, ce.Msg)
			if cls := ce.s("class"); cls != "" {
				fmt.Fprintf(w, " (%s)", cls)
			}
			fmt.Fprintln(w)
		}
	}
}

// tables prints the paper-table summary: the Table 3 effort accounting from
// the crawl counters and the Table 2/4-shaped result parameters the run
// recorded.
func tables(w io.Writer, m *obs.Manifest) {
	seed := counterSum(m, `crawl_requests_total{category="seed"}`)
	profile := counterSum(m, `crawl_requests_total{category="profile"}`)
	friend := counterSum(m, `crawl_requests_total{category="friendlist"}`)
	total := seed + profile + friend
	hasEffort := total > 0
	hasResults := m.Params["result_selected"] != nil
	if !hasEffort && !hasResults {
		return
	}
	fmt.Fprintln(w, "\npaper-table summary:")
	if hasResults {
		fmt.Fprintf(w, "  seeds |S|: %v   core |C|: %v   extended core: %v   candidates: %v\n",
			m.Params["result_seeds"], m.Params["result_core"],
			m.Params["result_extended_core"], m.Params["result_candidates"])
		fmt.Fprintf(w, "  inferred students |H| (Table 2/4): %v\n", m.Params["result_selected"])
		if by, ok := m.Params["result_by_year"].(map[string]any); ok {
			years := make([]string, 0, len(by))
			for y := range by {
				years = append(years, y)
			}
			sort.Strings(years)
			for _, y := range years {
				fmt.Fprintf(w, "    class of %s: %v students\n", y, by[y])
			}
		}
	}
	if hasEffort {
		fmt.Fprintf(w, "  effort (Table 3): %.0f seed + %.0f profile + %.0f friend-list = %.0f requests\n",
			seed, profile, friend, total)
	}
	if retries := prefixSum(m, "crawl_retries_total"); retries > 0 {
		fmt.Fprintf(w, "  resilience: %.0f retries, %.0f hard failures, %.0f faults injected\n",
			retries, prefixSum(m, "crawl_failures_total"), prefixSum(m, "faults_injected_total"))
	}
}

func counterSum(m *obs.Manifest, series string) float64 {
	return m.Counters[series]
}

// prefixSum totals every counter series of one metric name across labels.
func prefixSum(m *obs.Manifest, name string) float64 {
	var total float64
	for k, v := range m.Counters {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}
