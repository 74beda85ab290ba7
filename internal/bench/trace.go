package bench

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one recorded interval of a traced run, as written to the spans
// file: a name, start and end offsets from the recorder's origin, the span
// that caused it, and the wire request id where the span belongs to one.
type Span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	ReqID   string  `json:"req_id,omitempty"`
}

// interval is a closed wall-clock range.
type interval struct{ start, end time.Time }

func (iv interval) dur() time.Duration { return iv.end.Sub(iv.start) }

// unionWithin is the length of the union of ivs clipped to [lo, hi]:
// overlapping intervals (concurrent fetches) count once.
func unionWithin(ivs []interval, lo, hi time.Time) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start.Before(lo) {
			iv.start = lo
		}
		if iv.end.After(hi) {
			iv.end = hi
		}
		if iv.end.After(iv.start) {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case !iv.start.After(cur.end):
			if iv.end.After(cur.end) {
				cur.end = iv.end
			}
		default:
			total += cur.dur()
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.dur()
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(span interval, children []interval) time.Duration {
	return span.dur() - unionWithin(children, span.start, span.end)
}

// callRec is one client call seen by the crawler.Client tap, with the
// round trip it caused once the join has found it.
type callRec struct {
	kind string
	key  string
	iv   interval
	rt   *rtRec
}

// rtRec is one HTTP round trip seen by the transport tap: from RoundTrip
// entry to the end of the response body. id is the request id as sent.
type rtRec struct {
	key string
	id  string
	iv  interval
}

// stepRec is one methodology step span of core.RunContext.
type stepRec struct {
	name string
	iv   interval
}

// Recorder holds a traced run's timings in memory: client calls, round
// trips, server handler intervals and named step spans. The taps write to
// it concurrently; the analysis reads it once the run is over.
type Recorder struct {
	origin time.Time
	seq    atomic.Int64

	mu       sync.Mutex
	calls    []*callRec
	rts      []*rtRec
	handlers map[string]interval
	steps    []stepRec
	open     map[any]*stepRec
	accts    map[string]int
}

// NewRecorder returns an empty recorder whose span offsets count from now.
func NewRecorder() *Recorder {
	return &Recorder{
		origin:   time.Now(),
		handlers: make(map[string]interval),
		open:     make(map[any]*stepRec),
		accts:    make(map[string]int),
	}
}

// beginCall starts timing a client call under its join key.
func (r *Recorder) beginCall(kind, key string) *callRec {
	return &callRec{kind: kind, key: key, iv: interval{start: time.Now()}}
}

// endCall finishes a call and records it.
func (r *Recorder) endCall(c *callRec) {
	end := time.Now()
	r.mu.Lock()
	c.iv.end = end
	r.calls = append(r.calls, c)
	r.mu.Unlock()
}

// beginRoundTrip starts timing a round trip and records it.
func (r *Recorder) beginRoundTrip(key, id string) *rtRec {
	rt := &rtRec{key: key, id: id, iv: interval{start: time.Now()}}
	r.mu.Lock()
	r.rts = append(r.rts, rt)
	r.mu.Unlock()
	return rt
}

// endRoundTrip stamps the round trip's end once; later calls are no-ops.
func (r *Recorder) endRoundTrip(rt *rtRec) {
	end := time.Now()
	r.mu.Lock()
	if rt.iv.end.IsZero() {
		rt.iv.end = end
	}
	r.mu.Unlock()
}

// handler records one server handler interval under its request id.
func (r *Recorder) handler(id string, iv interval) {
	r.mu.Lock()
	r.handlers[id] = iv
	r.mu.Unlock()
}

// nextID mints a run-unique suffix for request ids, so repeated identical
// requests (whose client-minted ids coincide) stay distinguishable.
func (r *Recorder) nextID(base string) string {
	return base + "." + strconv.FormatInt(r.seq.Add(1), 10)
}

// registerToken maps an account token to its registration index — the
// account number the crawler.Client surface uses.
func (r *Recorder) registerToken(tok string) {
	r.mu.Lock()
	if _, ok := r.accts[tok]; !ok {
		r.accts[tok] = len(r.accts)
	}
	r.mu.Unlock()
}

// acctOf returns the registration index of a token, or -1.
func (r *Recorder) acctOf(tok string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if a, ok := r.accts[tok]; ok {
		return a
	}
	return -1
}

// stepStart and stepEnd bracket a named step; key identifies the step
// between the two calls (the obs span pointer for RunContext's steps).
func (r *Recorder) stepStart(key any, name string) {
	now := time.Now()
	r.mu.Lock()
	r.open[key] = &stepRec{name: name, iv: interval{start: now}}
	r.mu.Unlock()
}

func (r *Recorder) stepEnd(key any) {
	now := time.Now()
	r.mu.Lock()
	if s, ok := r.open[key]; ok {
		s.iv.end = now
		r.steps = append(r.steps, *s)
		delete(r.open, key)
	}
	r.mu.Unlock()
}

// step records a finished named interval directly.
func (r *Recorder) step(name string, iv interval) {
	r.mu.Lock()
	r.steps = append(r.steps, stepRec{name: name, iv: iv})
	r.mu.Unlock()
}

// fetch is one client call after the join: the three layers that add up
// to its duration.
type fetch struct {
	kind                 string
	call, parse, wire, h time.Duration
}

// joinStats reports how the join went.
type joinStats struct {
	Calls    int `json:"calls"`
	Joined   int `json:"joined"`
	Unjoined int `json:"unjoined"`
	// Negative counts joined calls whose round trip did not fit inside the
	// call, or whose handler did not fit inside the round trip — a broken
	// join rather than a slow layer.
	Negative int `json:"negative"`
}

// join pairs each call with the round trip it caused: one with the same
// key (kind, target, page, account) that lies inside the call. Identical
// requests in flight together share a key, so within a key the pairing is
// a bipartite matching of round trips to the calls containing them, found
// by augmenting paths. Round trips no call made (registration, warm-up and
// verification reads) stay unpaired. Caller holds r.mu.
func (r *Recorder) join() {
	calls := make(map[string][]*callRec)
	for _, c := range r.calls {
		c.rt = nil
		calls[c.key] = append(calls[c.key], c)
	}
	rts := make(map[string][]*rtRec)
	for _, rt := range r.rts {
		if !rt.iv.end.IsZero() {
			rts[rt.key] = append(rts[rt.key], rt)
		}
	}
	for key, cs := range calls {
		owner := make(map[*callRec]*rtRec)
		var try func(rt *rtRec, seen map[*callRec]bool) bool
		try = func(rt *rtRec, seen map[*callRec]bool) bool {
			for _, c := range cs {
				if seen[c] || rt.iv.start.Before(c.iv.start) || c.iv.end.Before(rt.iv.end) {
					continue
				}
				seen[c] = true
				if o, ok := owner[c]; !ok || try(o, seen) {
					owner[c] = rt
					return true
				}
			}
			return false
		}
		for _, rt := range rts[key] {
			try(rt, make(map[*callRec]bool))
		}
		for c, rt := range owner {
			c.rt = rt
		}
	}
}

// fetches joins every finished call to its round trip and handler. For a
// joined fetch parse + wire + handler equals the call time by
// construction; the stats count the calls for which it could not be built.
func (r *Recorder) fetches() ([]fetch, joinStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.join()
	var out []fetch
	js := joinStats{Calls: len(r.calls)}
	for _, c := range r.calls {
		if c.rt == nil || c.rt.iv.end.IsZero() {
			js.Unjoined++
			continue
		}
		h, ok := r.handlers[c.rt.id]
		if !ok {
			js.Unjoined++
			continue
		}
		f := fetch{kind: c.kind, call: c.iv.dur(), h: h.dur()}
		f.parse = f.call - c.rt.iv.dur()
		f.wire = c.rt.iv.dur() - f.h
		if f.wire < 0 || h.start.Before(c.rt.iv.start) {
			js.Negative++
			continue
		}
		js.Joined++
		out = append(out, f)
	}
	return out, js
}

// callIntervals returns every finished call's interval.
func (r *Recorder) callIntervals() []interval {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]interval, len(r.calls))
	for i, c := range r.calls {
		out[i] = c.iv
	}
	return out
}

// stepList returns the finished steps in start order.
func (r *Recorder) stepList() []stepRec {
	r.mu.Lock()
	out := append([]stepRec(nil), r.steps...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].iv.start.Before(out[j].iv.start) })
	return out
}

// Spans materializes the recorded intervals as a span tree: steps at the
// top (nested by containment), each client call under the step that
// contains it, its round trip under the call and the handler under the
// round trip, the three sharing the request id. At most maxCalls calls are
// included (the earliest), so a long read run keeps a bounded span file.
func (r *Recorder) Spans(maxCalls int) []Span {
	steps := r.stepList()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.join()
	var out []Span
	add := func(parent int, name string, iv interval, id string) int {
		s := Span{
			ID:      len(out) + 1,
			Parent:  parent,
			Name:    name,
			StartUS: float64(iv.start.Sub(r.origin).Nanoseconds()) / 1e3,
			EndUS:   float64(iv.end.Sub(r.origin).Nanoseconds()) / 1e3,
			ReqID:   id,
		}
		out = append(out, s)
		return s.ID
	}
	type placed struct {
		iv interval
		id int
	}
	var stack []placed
	parentOf := func(iv interval) int {
		for i := len(stack) - 1; i >= 0; i-- {
			p := stack[i]
			if !iv.start.Before(p.iv.start) && !iv.end.After(p.iv.end) {
				return p.id
			}
		}
		return 0
	}
	for _, s := range steps {
		id := add(parentOf(s.iv), s.name, s.iv, "")
		stack = append(stack, placed{s.iv, id})
	}
	calls := append([]*callRec(nil), r.calls...)
	sort.Slice(calls, func(i, j int) bool { return calls[i].iv.start.Before(calls[j].iv.start) })
	if len(calls) > maxCalls {
		calls = calls[:maxCalls]
	}
	for _, c := range calls {
		rid := ""
		if c.rt != nil {
			rid = c.rt.id
		}
		cid := add(parentOf(c.iv), "client."+c.kind, c.iv, rid)
		if c.rt == nil || c.rt.iv.end.IsZero() {
			continue
		}
		tid := add(cid, "wire."+c.kind, c.rt.iv, rid)
		if h, ok := r.handlers[rid]; ok {
			add(tid, "handler."+c.kind, h, rid)
		}
	}
	return out
}
