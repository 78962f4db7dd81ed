// Package upcall implements the IPC channel between the DataLinks File
// System (a VFS layer, conceptually in the kernel) and the DLFM upcall
// daemon (user space) — the dashed arrow in Figure 1 of the paper.
//
// Every design decision in §4 revolves around when this channel must be
// crossed: token admission and token-entry checks at open, update
// bookkeeping at write-open and close, and link checks on remove/rename.
// (The paper crosses it once more, validating the token at lookup; here the
// token rides the open request — a stated deviation from §4.1, made possible
// by DLFS owning its vnode. See package dlfs.)
// The package therefore counts calls per operation and can inject a fixed
// latency so experiments reproduce the paper's IPC-cost trade-offs on
// modern hardware.
//
// Two transports are provided: a direct in-process transport and a TCP
// transport for running DLFM as a separate daemon (cmd/dlfmd). The TCP
// plane is built for real networks: length-prefixed frames in a fixed binary
// layout (frame.go: version byte first, varints, length-prefixed strings —
// no reflection, no per-frame type descriptors) with a hard frame-size
// limit, a connection pool with health-checked reconnect,
// per-op deadlines, retry with capped exponential backoff and full jitter
// (internal/retry), an optional circuit breaker, and server-side
// backpressure (bounded connections, per-connection request windows, global
// in-flight cap, slow/idle-client eviction, graceful drain). A Chaos fault
// injector wraps either transport so every failure mode is testable
// deterministically.
package upcall

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"datalinks/internal/metrics"
	"datalinks/internal/obs"
)

// Op identifies the upcall operation.
type Op uint8

// Upcall operations, one per DLFS interposition point.
const (
	OpValidateToken Op = iota + 1 // a token presented on an open that makes no other upcall
	OpCheckOpen                   // fs_open of a DLFM-owned (full control) file
	OpWriteOpen                   // fs_open for write after a native EACCES (rfd path)
	OpClose                       // fs_close of a tracked open
	OpCheckRemove                 // fs_remove of any file
	OpCheckRename                 // fs_rename of any file
	OpReadOpen                    // read-open notification (full control: sync entry)

	opLimit // one past the last op
)

// String names the op for metrics and traces.
func (o Op) String() string {
	switch o {
	case OpValidateToken:
		return "validate_token"
	case OpCheckOpen:
		return "check_open"
	case OpWriteOpen:
		return "write_open"
	case OpClose:
		return "close"
	case OpCheckRemove:
		return "check_remove"
	case OpCheckRename:
		return "check_rename"
	case OpReadOpen:
		return "read_open"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Ops lists every upcall operation (metrics tables iterate it).
func Ops() []Op {
	return []Op{OpValidateToken, OpCheckOpen, OpWriteOpen, OpClose, OpCheckRemove, OpCheckRename, OpReadOpen}
}

// Request is one upcall from DLFS to DLFM.
type Request struct {
	Op      Op
	Path    string // server-relative file path
	NewPath string // rename target
	Token   string // access token the name carried, if any; admitted by the open that carries it
	UID     int32  // credentials of the application process
	Write   bool   // open access includes write
	OpenID  uint64 // correlation id assigned at open approval, echoed at close
	Size    int64  // close: file size after the open-close window
	Mtime   int64  // close: mtime (unix nanos) after the window
	Strict  bool   // strict-link-check extension: register opens of unlinked files
}

// Response is DLFM's answer.
type Response struct {
	OK       bool
	Err      string // human-readable rejection reason when !OK
	Code     Code   // machine-readable rejection class
	OpenID   uint64 // correlation id for approved opens
	TakeOver bool   // DLFS must retry the physical open with system credentials
}

// Code classifies rejections so DLFS can map them to errno-style errors.
type Code uint8

// Rejection codes.
const (
	CodeOK Code = iota
	CodeNotLinked
	CodePermission
	CodeBadToken
	CodeBusy
	CodeIntegrity
	CodeInternal
)

// Service is the DLFM upcall daemon's interface.
type Service interface {
	Upcall(req Request) (Response, error)
}

// CtxService is implemented by services that accept a request context — the
// carrier for trace spans (and future deadlines) across the upcall plane.
// Service stays the required interface so existing implementations keep
// working; Call upgrades to CtxService when available.
type CtxService interface {
	UpcallCtx(ctx context.Context, req Request) (Response, error)
}

// Call invokes svc with the context when it supports one, else plain Upcall.
// The single dispatch point every DLFS hook goes through.
func Call(ctx context.Context, svc Service, req Request) (Response, error) {
	if cs, ok := svc.(CtxService); ok {
		return cs.UpcallCtx(ctx, req)
	}
	return svc.Upcall(req)
}

// Transport-fault taxonomy. ErrTransport is the base class every transport
// failure wraps; the retry classifier keys off the finer-grained sentinels.
var (
	// ErrTransport reports a broken transport (daemon down). Every error
	// below wraps it, so errors.Is(err, ErrTransport) catches them all.
	ErrTransport = errors.New("upcall: transport failure")
	// ErrConnLost marks a connection-scoped fault: dial failure, I/O
	// deadline, mid-request drop, torn frame, or a decode error. The
	// connection it happened on has been retired — state never leaks into
	// the next request — and a fresh attempt may succeed. Retryable.
	ErrConnLost = errors.New("upcall: connection lost")
	// ErrOverloaded is the server's backpressure signal: a request arrived
	// while the per-connection window or the global in-flight cap was
	// full. The connection is healthy; back off and retry.
	ErrOverloaded = errors.New("upcall: server overloaded")
	// ErrDraining reports a server that is shutting down gracefully:
	// it finishes in-flight requests but accepts no new ones. Retryable
	// (a replacement daemon may pick up the address).
	ErrDraining = errors.New("upcall: server draining")
	// ErrFrameTooLarge reports a frame beyond the configured size limit —
	// in either direction. Oversized inbound frames cannot be skipped
	// (the stream is unparseable past them), so the connection dies.
	ErrFrameTooLarge = errors.New("upcall: frame exceeds size limit")
	// ErrWireVersion reports a frame whose first payload byte is not this
	// build's wire version: the peer speaks another envelope layout (or the
	// gob envelope that predates the layout). The connection is retired, and
	// the fault is permanent — the next attempt would reach the same peer.
	ErrWireVersion = errors.New("upcall: wire version mismatch")
)

// connLost wraps a low-level cause as a retryable connection-loss fault.
func connLost(cause error) error {
	return fmt.Errorf("%w: %w: %w", ErrTransport, ErrConnLost, cause)
}

// Transport is a Service that carries calls to a remote Service while
// recording metrics and injecting simulated IPC latency.
type Transport struct {
	svc     Service
	latency time.Duration
	reg     *metrics.Registry
	sem     chan struct{} // nil: unbounded

	total      *metrics.Counter
	latencyAll *metrics.Histogram
	// perOp caches each op's counter and histogram on first use, so the
	// steady state neither builds their names nor looks them up.
	perOp [opLimit]atomic.Pointer[opMetrics]
}

// opMetrics is one op's "upcall.<op>" counter and "upcall.latency.<op>"
// histogram.
type opMetrics struct {
	calls   *metrics.Counter
	latency *metrics.Histogram
}

// metricsFor returns op's metrics. An op outside the known range (a corrupt
// or future request) is still counted, by name.
func (t *Transport) metricsFor(op Op) *opMetrics {
	if int(op) >= len(t.perOp) {
		return t.newOpMetrics(op)
	}
	m := t.perOp[op].Load()
	if m == nil {
		m = t.newOpMetrics(op)
		t.perOp[op].Store(m)
	}
	return m
}

func (t *Transport) newOpMetrics(op Op) *opMetrics {
	name := op.String()
	return &opMetrics{calls: t.reg.Counter("upcall." + name), latency: t.reg.Histogram("upcall.latency." + name)}
}

// NewInProc wraps a Service with metrics and optional injected latency,
// modelling same-machine IPC (the production DLFS↔DLFM configuration).
func NewInProc(svc Service, latency time.Duration, reg *metrics.Registry) *Transport {
	return NewInProcWidth(svc, latency, 0, reg)
}

// NewInProcWidth is NewInProc with a bound on concurrent upcalls (0 =
// unbounded): at most width requests are in the IPC channel at once, the rest
// queue. The semaphore encloses the injected latency — a real IPC channel's
// width covers the wire time, not just the daemon's service time — which is
// what makes per-server capacity finite in scale-out experiments.
func NewInProcWidth(svc Service, latency time.Duration, width int, reg *metrics.Registry) *Transport {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	t := &Transport{svc: svc, latency: latency, reg: reg,
		total: reg.Counter("upcall.total"), latencyAll: reg.Histogram("upcall.latency")}
	if width > 0 {
		t.sem = make(chan struct{}, width)
	}
	return t
}

// Upcall forwards the request, counting and timing it (aggregate and
// per-op, so experiments report p50/p95/p99 per operation).
func (t *Transport) Upcall(req Request) (Response, error) {
	return t.UpcallCtx(context.Background(), req)
}

// UpcallCtx is Upcall carrying the request context through to the service.
// When the context holds a trace span, the in-proc IPC hop gets its own
// "upcall" child span — the in-process analogue of the TCP client's "wire"
// span.
func (t *Transport) UpcallCtx(ctx context.Context, req Request) (Response, error) {
	start := time.Now()
	if sp := obs.SpanFrom(ctx); sp != nil {
		c := sp.Child("upcall")
		c.SetString("op", req.Op.String())
		ctx = obs.ContextWithSpan(ctx, c)
		defer c.End()
	}
	if t.sem != nil {
		t.sem <- struct{}{}
		defer func() { <-t.sem }()
	}
	if t.latency > 0 {
		time.Sleep(t.latency)
	}
	resp, err := Call(ctx, t.svc, req)
	m := t.metricsFor(req.Op)
	m.calls.Inc()
	t.total.Inc()
	elapsed := time.Since(start)
	t.latencyAll.Observe(elapsed)
	m.latency.Observe(elapsed)
	return resp, err
}

// Metrics exposes the transport's registry.
func (t *Transport) Metrics() *metrics.Registry { return t.reg }

// SetLatency changes the injected IPC latency (experiments sweep this).
func (t *Transport) SetLatency(d time.Duration) { t.latency = d }

// Calls returns the total number of upcalls made so far.
func (t *Transport) Calls() int64 { return t.total.Value() }

// CallsFor returns the upcall count for one operation.
func (t *Transport) CallsFor(op Op) int64 {
	return t.reg.Counter("upcall." + op.String()).Value()
}

// Reset zeroes all transport metrics.
func (t *Transport) Reset() { t.reg.ResetAll() }
