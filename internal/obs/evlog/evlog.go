// Package evlog is the flight recorder: a zero-dependency, concurrency-safe
// structured event logger for the serving and attack pipelines. Every layer
// emits leveled, categorized events — policy-gate decisions, throttle and
// suspension transitions, per-request access lines, retries, backoffs,
// injected faults, methodology-step boundaries — as JSONL to an optional
// sink, and into a fixed-size in-memory ring whose tail can be dumped when a
// run dies (error or SIGINT), so a failed crawl explains itself without a
// rerun.
//
// Design rules, shared with the sibling metrics/trace layer in internal/obs:
//
//   - Disabled means free. A nil *Logger turns every method into a nil
//     check; the field constructors build plain structs that never escape,
//     so a fully instrumented hot path costs zero allocations when logging
//     is off (guarded by BenchmarkDisabled / TestDisabledLoggerAllocs).
//   - Enabled means cheap. Events are hand-encoded into pooled buffers and
//     written with a single Write call per line, so concurrent writers never
//     tear a line and the hot serving path stays at ≤ 1 alloc per event.
//   - Correlated. When the context carries an obs trace, every event is
//     stamped with the trace name and the current span's sequence id — the
//     same id the run manifest records per phase — so cmd/runreport can join
//     event chains back onto the trace tree.
package evlog

import (
	"context"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hsprofiler/internal/obs"
)

// Level orders event severity. Debug events are the per-request firehose;
// Info marks state transitions and phase boundaries; Warn marks conditions
// the pipeline rode out (throttles, retries, injected faults); Error marks
// conditions that cost data (exhausted retries, aborted items).
type Level int8

const (
	Debug Level = iota
	Info
	Warn
	Error
)

// String names the level the way the JSONL schema spells it.
func (l Level) String() string {
	switch l {
	case Debug:
		return "debug"
	case Info:
		return "info"
	case Warn:
		return "warn"
	default:
		return "error"
	}
}

// fieldKind discriminates the typed value slots of F.
type fieldKind uint8

const (
	kindString fieldKind = iota
	kindInt
	kindFloat
	kindBool
	kindDuration
)

// F is one structured field of an event. Fields carry their value in a
// typed slot rather than an interface, so constructing one never boxes (and
// never allocates) — the property the disabled-path zero-alloc guarantee
// rests on.
type F struct {
	k    string
	s    string
	i    int64
	f    float64
	b    bool
	kind fieldKind
}

// Str is a string field.
func Str(k, v string) F { return F{k: k, s: v, kind: kindString} }

// Int is an integer field.
func Int(k string, v int) F { return F{k: k, i: int64(v), kind: kindInt} }

// I64 is an int64 field.
func I64(k string, v int64) F { return F{k: k, i: v, kind: kindInt} }

// Float is a float64 field.
func Float(k string, v float64) F { return F{k: k, f: v, kind: kindFloat} }

// Bool is a boolean field.
func Bool(k string, v bool) F { return F{k: k, b: v, kind: kindBool} }

// Dur records a duration in fractional milliseconds, the schema's one time
// unit (key convention: "ms", "backoff_ms", ...).
func Dur(k string, d time.Duration) F {
	return F{k: k, f: float64(d.Nanoseconds()) / 1e6, kind: kindDuration}
}

// Err records err.Error() under k, or an empty string for nil.
func Err(k string, err error) F {
	if err == nil {
		return F{k: k, kind: kindString}
	}
	return F{k: k, s: err.Error(), kind: kindString}
}

// Options configures a Logger.
type Options struct {
	// Sink receives one JSON object per line. The logger serializes writes
	// (one Write call per line) but does not buffer or close the sink; give
	// it an *os.File or a bufio.Writer the caller flushes. Nil disables the
	// sink, leaving only the ring.
	Sink io.Writer
	// MinLevel drops events below it before any encoding work. Default
	// Debug (keep everything).
	MinLevel Level
	// RingSize is how many events the in-memory flight recorder retains
	// (the "last N" a crash dump shows). 0 means the default of 256;
	// negative disables the ring.
	RingSize int
	// Sample keeps 1 in N events per category (unlisted categories keep
	// everything). A non-positive or 1 N is clamped to 1 — keep everything
	// — at construction, so a miscomputed rate can never divide by zero or
	// silently drop a whole category. Sampling is deterministic per
	// category — the 1st, N+1st, 2N+1st... events pass — so two identical
	// runs sample identically.
	Sample map[string]int
}

// DefaultRingSize is the flight-recorder depth when Options.RingSize is 0.
const DefaultRingSize = 256

// Logger emits structured events. All methods are safe for concurrent use;
// a nil *Logger is a valid no-op.
type Logger struct {
	min     Level
	sink    io.Writer
	ring    *ring
	samples map[string]*sampleState

	mu   sync.Mutex // serializes sink writes
	pool sync.Pool  // *[]byte encode buffers

	events  atomic.Int64 // events emitted (post-sampling)
	sampled atomic.Int64 // events dropped by sampling
}

// sampleState is the per-category pass-1-in-N counter.
type sampleState struct {
	n     atomic.Uint64
	every uint64
}

// New builds a logger. Returns a ready logger even for zero Options (ring
// only, default size, keep everything).
func New(o Options) *Logger {
	l := &Logger{min: o.MinLevel, sink: o.Sink}
	size := o.RingSize
	if size == 0 {
		size = DefaultRingSize
	}
	if size > 0 {
		l.ring = newRing(size)
	}
	if len(o.Sample) > 0 {
		l.samples = make(map[string]*sampleState, len(o.Sample))
		for cat, every := range o.Sample {
			// Clamp non-positive N to 1 (keep everything): a sampleState
			// with every == 0 would panic on the modulo in pass, and
			// every == 1 needs no state at all.
			if every < 1 {
				every = 1
			}
			if every > 1 {
				l.samples[cat] = &sampleState{every: uint64(every)}
			}
		}
	}
	l.pool.New = func() any {
		b := make([]byte, 0, 512)
		return &b
	}
	return l
}

// On reports whether events at the level would be emitted at all — the
// guard for callers that must do real work (formatting a key, walking a
// structure) before they can even construct fields.
func (l *Logger) On(lv Level) bool { return l != nil && lv >= l.min }

// Events reports how many events were emitted (after sampling).
func (l *Logger) Events() int64 {
	if l == nil {
		return 0
	}
	return l.events.Load()
}

// Sampled reports how many events sampling dropped.
func (l *Logger) Sampled() int64 {
	if l == nil {
		return 0
	}
	return l.sampled.Load()
}

// Debug emits a debug event. See Log.
func (l *Logger) Debug(ctx context.Context, cat, msg string, fields ...F) {
	l.Log(ctx, Debug, cat, msg, fields...)
}

// Info emits an info event. See Log.
func (l *Logger) Info(ctx context.Context, cat, msg string, fields ...F) {
	l.Log(ctx, Info, cat, msg, fields...)
}

// Warn emits a warning event. See Log.
func (l *Logger) Warn(ctx context.Context, cat, msg string, fields ...F) {
	l.Log(ctx, Warn, cat, msg, fields...)
}

// Error emits an error event. See Log.
func (l *Logger) Error(ctx context.Context, cat, msg string, fields ...F) {
	l.Log(ctx, Error, cat, msg, fields...)
}

// Log emits one event: a single JSONL line
//
//	{"t":"<RFC3339Nano>","lvl":"info","cat":"crawl","msg":"retry",
//	 "trace":"hsprofile","span":17,"category":"profile","attempt":2}
//
// to the sink and the ring. The trace/span pair appears when ctx carries an
// obs trace (obs.Trace.Context / obs.StartSpan); span is the same sequence
// id the run manifest stores per phase. A nil logger, a level below
// MinLevel, or a sampled-out category all return before any encoding.
func (l *Logger) Log(ctx context.Context, lv Level, cat, msg string, fields ...F) {
	if l == nil || lv < l.min {
		return
	}
	if !l.pass(cat) {
		return
	}
	bp := l.pool.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, `{"t":"`...)
	b = time.Now().AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","lvl":"`...)
	b = append(b, lv.String()...)
	b = append(b, `","cat":`...)
	b = appendJSONString(b, cat)
	b = append(b, `,"msg":`...)
	b = appendJSONString(b, msg)
	if span := obs.SpanFromContext(ctx); span != nil {
		b = append(b, `,"trace":`...)
		b = appendJSONString(b, span.TraceName())
		b = append(b, `,"span":`...)
		b = strconv.AppendInt(b, int64(span.ID()), 10)
	}
	for _, f := range fields {
		b = append(b, ',')
		b = appendJSONString(b, f.k)
		b = append(b, ':')
		switch f.kind {
		case kindString:
			b = appendJSONString(b, f.s)
		case kindInt:
			b = strconv.AppendInt(b, f.i, 10)
		case kindFloat, kindDuration:
			b = appendFloat(b, f.f)
		case kindBool:
			b = strconv.AppendBool(b, f.b)
		}
	}
	b = append(b, '}')
	l.events.Add(1)
	if l.ring != nil {
		l.ring.add(b)
	}
	if l.sink != nil {
		b = append(b, '\n')
		l.mu.Lock()
		l.sink.Write(b)
		l.mu.Unlock()
	}
	*bp = b[:0]
	l.pool.Put(bp)
}

// pass applies per-category sampling.
func (l *Logger) pass(cat string) bool {
	if l.samples == nil {
		return true
	}
	s := l.samples[cat]
	if s == nil {
		return true
	}
	if s.n.Add(1)%s.every == 1 {
		return true
	}
	l.sampled.Add(1)
	return false
}

// DumpRing writes the flight recorder's retained events (oldest first) as
// JSONL to w and reports how many lines it wrote. The ring keeps recording
// while the dump runs; the dump is a consistent snapshot.
func (l *Logger) DumpRing(w io.Writer) (int, error) {
	if l == nil || l.ring == nil {
		return 0, nil
	}
	return l.ring.dump(w)
}

// RingLen reports how many events the flight recorder currently retains.
func (l *Logger) RingLen() int {
	if l == nil || l.ring == nil {
		return 0
	}
	return l.ring.len()
}

// appendFloat renders a float the way the manifest does: integral values
// without an exponent, everything else in shortest form. NaN/Inf (never
// produced by our callers, but JSON-illegal) degrade to null.
func appendFloat(b []byte, v float64) []byte {
	if v != v || v > 1e308 || v < -1e308 {
		return append(b, "null"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendJSONString appends v as a quoted JSON string. The escape set covers
// everything encoding/json escapes structurally (quotes, backslashes,
// control bytes); multi-byte UTF-8 passes through untouched.
func appendJSONString(b []byte, v string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		b = append(b, v[start:i]...)
		switch c {
		case '"':
			b = append(b, '\\', '"')
		case '\\':
			b = append(b, '\\', '\\')
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
		start = i + 1
	}
	b = append(b, v[start:]...)
	return append(b, '"')
}

// ringSlotCap is the preallocated capacity of each ring slot. Events longer
// than this are retained whole — the slot grows once and stays grown — so a
// dump never truncates a line into invalid JSON.
const ringSlotCap = 512

// ring is the fixed-size flight recorder: the last N encoded lines, oldest
// overwritten first.
type ring struct {
	mu    sync.Mutex
	slots [][]byte
	n     uint64 // total events ever added
}

func newRing(size int) *ring {
	r := &ring{slots: make([][]byte, size)}
	for i := range r.slots {
		r.slots[i] = make([]byte, 0, ringSlotCap)
	}
	return r
}

// add copies line into the next slot. Zero allocations for lines within
// ringSlotCap; longer lines grow their slot (rare, amortized).
func (r *ring) add(line []byte) {
	r.mu.Lock()
	i := int(r.n % uint64(len(r.slots)))
	r.slots[i] = append(r.slots[i][:0], line...)
	r.n++
	r.mu.Unlock()
}

func (r *ring) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n < uint64(len(r.slots)) {
		return int(r.n)
	}
	return len(r.slots)
}

// dump snapshots the retained lines under the lock, then writes them
// outside it so a slow writer cannot stall recording.
func (r *ring) dump(w io.Writer) (int, error) {
	r.mu.Lock()
	size := uint64(len(r.slots))
	start, count := uint64(0), r.n
	if r.n > size {
		start, count = r.n-size, size
	}
	lines := make([][]byte, 0, count)
	for k := uint64(0); k < count; k++ {
		src := r.slots[(start+k)%size]
		line := make([]byte, len(src)+1)
		copy(line, src)
		line[len(src)] = '\n'
		lines = append(lines, line)
	}
	r.mu.Unlock()
	for n, line := range lines {
		if _, err := w.Write(line); err != nil {
			return n, err
		}
	}
	return len(lines), nil
}

// ctxKey carries a *Logger on a context.
type ctxKey struct{}

// NewContext returns ctx carrying the logger, for layers that receive a
// context rather than a handle (core.RunContext).
func NewContext(ctx context.Context, l *Logger) context.Context {
	if l == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, l)
}

// FromContext returns the context's logger, or nil (a valid no-op logger)
// when none is installed.
func FromContext(ctx context.Context) *Logger {
	l, _ := ctx.Value(ctxKey{}).(*Logger)
	return l
}
