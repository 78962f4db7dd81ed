// Package obs is the observability plane of the DataLinks stack:
// request-scoped traces with cheap span trees, a lock-striped bounded ring
// of recent traces per server, slowest-trace retention, a slow-op JSON event
// log, and the Prometheus-text metrics exposition used by cmd/dlfmd.
//
// Everything is nil-safe: a server with tracing disabled passes a nil
// *Tracer around, every Span method on the resulting nil spans is a no-op,
// and the instrumented hot paths pay only a pointer test.
//
// A trace follows one top-level operation (open, read, write, commit/close,
// link/unlink, migration move) end to end. The trace context crosses the
// DLFS→DLFM wire as a WireContext embedded in the upcall frame envelope:
// when client and server share a process (the in-proc transport and the
// TCP-loopback deployments used by tests and experiments), the server finds
// the still-pending trace by ID and attaches its spans under the client's
// wire span — one stitched tree from session retry loop to fsync round. A
// genuinely remote server records a standalone trace under the same trace ID
// so the two sides can still be joined offline.
package obs

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span. The typed setters keep its
// value one of string, int64, bool or float64.
type Attr struct {
	Key   string
	Value any
}

// Span is one timed region of a trace. All methods are safe on a nil
// receiver (tracing disabled) and safe for concurrent use.
type Span struct {
	tr    *Trace
	id    uint32
	name  string
	start time.Time

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
}

// Name returns the span's name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Child opens a sub-span. End it when the region completes.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := s.tr.newSpan(name)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End closes the span, fixing its duration. Ending twice keeps the first
// duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := s.tr.tracer.clock()
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = now.Sub(s.start)
	}
	s.mu.Unlock()
}

// setAttr annotates the span. It is unexported so that every caller goes
// through a typed setter, which tests the span before it boxes the value.
func (s *Span) setAttr(key string, value any) {
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetString annotates the span with a string. On an untraced path (a nil
// span) it costs a pointer test: the value is boxed only when it is kept.
func (s *Span) SetString(key, value string) {
	if s != nil {
		s.setAttr(key, value)
	}
}

// SetInt annotates the span with an integer, free on an untraced path like
// SetString.
func (s *Span) SetInt(key string, value int64) {
	if s != nil {
		s.setAttr(key, value)
	}
}

// SetBool annotates the span with a boolean, free on an untraced path like
// SetString.
func (s *Span) SetBool(key string, value bool) {
	if s != nil {
		s.setAttr(key, value)
	}
}

// SetFloat annotates the span with a float, free on an untraced path like
// SetString.
func (s *Span) SetFloat(key string, value float64) {
	if s != nil {
		s.setAttr(key, value)
	}
}

// Attr returns the value of the named annotation (the last one wins).
func (s *Span) Attr(key string) (any, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.attrs) - 1; i >= 0; i-- {
		if s.attrs[i].Key == key {
			return s.attrs[i].Value, true
		}
	}
	return nil, false
}

// Duration returns the span's duration (0 while still open).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

// Children returns a snapshot of the direct sub-spans.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Span, len(s.children))
	copy(out, s.children)
	return out
}

// Find returns the first span named name in this subtree (depth-first,
// including the receiver), or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.name == name {
		return s
	}
	for _, c := range s.Children() {
		if hit := c.Find(name); hit != nil {
			return hit
		}
	}
	return nil
}

// FindAll returns every span named name in this subtree, depth-first.
func (s *Span) FindAll(name string) []*Span {
	if s == nil {
		return nil
	}
	var out []*Span
	if s.name == name {
		out = append(out, s)
	}
	for _, c := range s.Children() {
		out = append(out, c.FindAll(name)...)
	}
	return out
}

// WireContext identifies a span for propagation across the upcall wire. The
// zero value means "no trace" — old peers that never set it are simply not
// traced, which is what makes the envelope extension version-skew safe.
type WireContext struct {
	Trace uint64
	Span  uint32
}

// Wire returns the span's wire context for embedding in an upcall frame.
func (s *Span) Wire() WireContext {
	if s == nil {
		return WireContext{}
	}
	return WireContext{Trace: s.tr.id, Span: s.id}
}

// Trace is one top-level operation's span tree.
type Trace struct {
	id     uint64
	op     string
	tracer *Tracer
	root   *Span

	mu       sync.Mutex
	nextSpan uint32
	spans    map[uint32]*Span
	end      time.Time
	finished bool
}

// ID returns the trace identifier (shared across the wire).
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// Op returns the top-level operation name.
func (t *Trace) Op() string {
	if t == nil {
		return ""
	}
	return t.op
}

// Root returns the root span.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Duration returns the root span's duration.
func (t *Trace) Duration() time.Duration { return t.Root().Duration() }

// newSpan allocates a registered span within the trace.
func (t *Trace) newSpan(name string) *Span {
	s := &Span{tr: t, name: name, start: t.tracer.clock()}
	t.mu.Lock()
	t.nextSpan++
	s.id = t.nextSpan
	t.spans[s.id] = s
	t.mu.Unlock()
	return s
}

// span resolves a span ID (the wire parent on adoption).
func (t *Trace) span(id uint32) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.spans[id]; ok {
		return s
	}
	return t.root
}

// Finish ends the root span and records the trace into the tracer's ring,
// slowest-list and (past the threshold) slow-op log. Safe on nil and safe to
// call once per trace.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.root.End()
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return
	}
	t.finished = true
	t.end = t.tracer.clock()
	t.mu.Unlock()
	t.tracer.record(t)
}

// stripeCount stripes the ring of completed traces so concurrent sessions
// finishing ops do not serialize on one mutex. Must be a power of two.
const stripeCount = 8

type stripe struct {
	mu   sync.Mutex
	buf  []*Trace // ring, len = capacity/stripeCount
	next int
}

// Config configures a Tracer.
type Config struct {
	// Capacity bounds the ring of retained completed traces (default 512).
	Capacity int
	// Slowest bounds the separately retained slowest-trace list (default 32).
	Slowest int
	// SlowOpThreshold emits traces whose root exceeds it to Log as one-line
	// JSON slow_op events. Zero disables the slow-op log.
	SlowOpThreshold time.Duration
	// Log receives slow_op events; nil suppresses them.
	Log *Logger
	// Clock injects a time source (tests); nil means time.Now.
	Clock func() time.Time
}

// Tracer owns the per-server trace machinery. A nil *Tracer is a valid
// "tracing disabled" tracer: Start returns nil traces and every downstream
// span operation no-ops.
type Tracer struct {
	cfg       Config
	clock     func() time.Time
	nextTrace atomic.Uint64
	pending   sync.Map // uint64 -> *Trace, started but not finished
	stripes   [stripeCount]stripe

	slowMu  sync.Mutex
	slowest []*Trace // descending by root duration, capped at cfg.Slowest
}

// New builds a Tracer.
func New(cfg Config) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 512
	}
	if cfg.Slowest <= 0 {
		cfg.Slowest = 32
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	t := &Tracer{cfg: cfg, clock: cfg.Clock}
	per := (cfg.Capacity + stripeCount - 1) / stripeCount
	if per < 1 {
		per = 1
	}
	for i := range t.stripes {
		t.stripes[i].buf = make([]*Trace, per)
	}
	return t
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Start opens a trace for one top-level operation. Finish it when the
// operation completes. Returns nil on a nil tracer.
func (t *Tracer) Start(op string) *Trace {
	if t == nil {
		return nil
	}
	tr := &Trace{id: t.nextTrace.Add(1), op: op, tracer: t, spans: make(map[uint32]*Span)}
	tr.root = tr.newSpan(op)
	t.pending.Store(tr.id, tr)
	return tr
}

// Adopt attaches a server-side span to the trace identified by an incoming
// wire context. If the trace is still pending in this tracer (client and
// server share the process — the in-proc transport or a TCP loopback), the
// span joins the live tree under the client's wire span: genuine stitching.
// Otherwise a standalone trace is recorded under the same trace ID so the
// two halves can be correlated offline. The returned func finishes the
// adopted span (and records the standalone trace, if one was created); it is
// never nil.
func (t *Tracer) Adopt(wc WireContext, name string) (*Span, func()) {
	if t == nil || wc.Trace == 0 {
		return nil, func() {}
	}
	if v, ok := t.pending.Load(wc.Trace); ok {
		tr := v.(*Trace)
		parent := tr.span(wc.Span)
		sp := parent.Child(name)
		return sp, sp.End
	}
	tr := &Trace{id: wc.Trace, op: name, tracer: t, spans: make(map[uint32]*Span)}
	tr.root = tr.newSpan(name)
	tr.root.SetBool("remote", true)
	return tr.root, tr.Finish
}

// record files a completed trace into the ring and the slowest list; this is
// also where the slow-op log line is emitted. Called once per trace.
func (t *Tracer) record(tr *Trace) {
	t.pending.Delete(tr.id)
	st := &t.stripes[tr.id&(stripeCount-1)]
	st.mu.Lock()
	st.buf[st.next] = tr
	st.next = (st.next + 1) % len(st.buf)
	st.mu.Unlock()

	dur := tr.Duration()
	t.slowMu.Lock()
	i := sort.Search(len(t.slowest), func(i int) bool { return t.slowest[i].Duration() < dur })
	if i < t.cfg.Slowest {
		t.slowest = append(t.slowest, nil)
		copy(t.slowest[i+1:], t.slowest[i:])
		t.slowest[i] = tr
		if len(t.slowest) > t.cfg.Slowest {
			t.slowest = t.slowest[:t.cfg.Slowest]
		}
	}
	t.slowMu.Unlock()

	if t.cfg.SlowOpThreshold > 0 && dur >= t.cfg.SlowOpThreshold {
		t.cfg.Log.Warn("slow_op", map[string]any{
			"trace":        tr.id,
			"op":           tr.op,
			"duration_ms":  durMS(dur),
			"threshold_ms": durMS(t.cfg.SlowOpThreshold),
			"spans":        tr.JSON().Root,
		})
	}
}

// Recent returns up to n most recently completed traces, newest first.
func (t *Tracer) Recent(n int) []*Trace {
	if t == nil {
		return nil
	}
	var out []*Trace
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock()
		for _, tr := range st.buf {
			if tr != nil {
				out = append(out, tr)
			}
		}
		st.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].end.After(out[j].end) })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Slowest returns up to n slowest completed traces, slowest first. Slow
// traces are retained here even after the ring has evicted them.
func (t *Tracer) Slowest(n int) []*Trace {
	if t == nil {
		return nil
	}
	t.slowMu.Lock()
	defer t.slowMu.Unlock()
	out := make([]*Trace, len(t.slowest))
	copy(out, t.slowest)
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// ctxKey carries the active span through a context.
type ctxKey struct{}

// ContextWithSpan returns a context carrying the span. A nil span returns
// ctx unchanged.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFrom returns the span carried by the context, or nil.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// durMS renders a duration as fractional milliseconds for JSON fields.
func durMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
