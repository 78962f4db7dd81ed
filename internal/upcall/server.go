package upcall

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"datalinks/internal/metrics"
	"datalinks/internal/obs"
)

// ServerConfig tunes the TCP upcall server's resource bounds. The zero
// value gets production defaults; tests shrink the knobs to force the
// backpressure and eviction paths deterministically.
type ServerConfig struct {
	// MaxConns bounds concurrent connections; excess accepts are closed
	// immediately (the client sees a connection loss and backs off).
	// <= 0: default 256.
	MaxConns int
	// Window bounds in-flight requests per connection. A request arriving
	// while the window is full is answered immediately with a retryable
	// overload error instead of spawning an unbounded goroutine.
	// <= 0: default 16.
	Window int
	// MaxInflight bounds in-flight requests across all connections.
	// <= 0: default 1024.
	MaxInflight int
	// FrameTimeout bounds reading the body of a started request frame —
	// a client that goes silent mid-frame is cut off. <= 0: default 10s.
	FrameTimeout time.Duration
	// WriteTimeout bounds writing one response frame; a client too slow to
	// drain its responses is evicted (its connection closed) rather than
	// allowed to pin a handler goroutine. <= 0: default 10s.
	WriteTimeout time.Duration
	// IdleTimeout evicts connections with no request for this long
	// (0: idle connections live forever).
	IdleTimeout time.Duration
	// MaxFrame bounds one frame's payload (<= 0: DefaultMaxFrame).
	// An oversized inbound frame kills its connection — the stream is
	// unparseable past it.
	MaxFrame int
	// Metrics receives the server-side counters (nil: private registry).
	Metrics *metrics.Registry
	// Tracer, when set, adopts inbound trace contexts: a request carrying a
	// TraceID gets a "server" span stitched under the client's wire span (or
	// a standalone remote trace when the client lives in another process).
	// nil: requests are served untraced.
	Tracer *obs.Tracer
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxConns <= 0 {
		c.MaxConns = 256
	}
	if c.Window <= 0 {
		c.Window = 16
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 1024
	}
	if c.FrameTimeout <= 0 {
		c.FrameTimeout = 10 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	return c
}

// Server serves a Service over TCP with bounded resources and graceful
// drain.
type Server struct {
	svc  Service
	cfg  ServerConfig
	ln   net.Listener
	wg   sync.WaitGroup // accept loop + per-conn readers
	gsem chan struct{}  // global in-flight slots

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	closed   bool
	draining atomic.Bool

	ctr serverCounters
}

type serverCounters struct {
	requests         *metrics.Counter
	inflightRejected *metrics.Counter
	connsRejected    *metrics.Counter
	evicted          *metrics.Counter
	oversized        *metrics.Counter
	drainRejected    *metrics.Counter
}

// Serve starts accepting connections on addr (e.g. "127.0.0.1:0") with
// default limits and returns the bound address.
func Serve(svc Service, addr string) (*Server, string, error) {
	return ServeConfig(svc, addr, ServerConfig{})
}

// ServeConfig starts a server with explicit resource bounds.
func ServeConfig(svc Service, addr string, cfg ServerConfig) (*Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	cfg = cfg.withDefaults()
	s := &Server{
		svc:   svc,
		cfg:   cfg,
		ln:    ln,
		gsem:  make(chan struct{}, cfg.MaxInflight),
		conns: make(map[net.Conn]struct{}),
		ctr: serverCounters{
			requests:         cfg.Metrics.Counter("upcall.server.requests"),
			inflightRejected: cfg.Metrics.Counter("upcall.inflight_rejected"),
			connsRejected:    cfg.Metrics.Counter("upcall.conns_rejected"),
			evicted:          cfg.Metrics.Counter("upcall.evicted"),
			oversized:        cfg.Metrics.Counter("upcall.frames_oversized"),
			drainRejected:    cfg.Metrics.Counter("upcall.drain_rejected"),
		},
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, ln.Addr().String(), nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Metrics exposes the server-side registry.
func (s *Server) Metrics() *metrics.Registry { return s.cfg.Metrics }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed || s.draining.Load() || len(s.conns) >= s.cfg.MaxConns {
			rejected := !s.closed && !s.draining.Load()
			s.mu.Unlock()
			if rejected {
				s.ctr.connsRejected.Inc()
			}
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// readRequest reads one framed request — readFrame with the server's two
// read deadlines: the header wait uses IdleTimeout (a quiet connection may
// be evicted); once a frame has started, its body must arrive within
// FrameTimeout.
func (s *Server) readRequest(conn net.Conn, e *envelope) error {
	if s.cfg.IdleTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
	} else {
		conn.SetReadDeadline(time.Time{})
	}
	// Drain publishes its flag before nudging read deadlines, so if the
	// flag is not visible here our deadline was set after any nudge and
	// stands; if it is visible, re-arm the nudge we may have overwritten.
	if s.draining.Load() {
		conn.SetReadDeadline(time.Now())
	}
	fb := getFrameBuf()
	defer putFrameBuf(fb)
	n, err := readFrameHeader(conn, s.cfg.MaxFrame, fb)
	if err != nil {
		return err
	}
	conn.SetReadDeadline(time.Now().Add(s.cfg.FrameTimeout))
	return readFrameBody(conn, n, fb, e)
}

// reply writes one response frame under the connection's write mutex with
// the write deadline armed. A deadline error means the client is too slow
// to drain responses: the caller evicts it.
func (s *Server) reply(conn net.Conn, wmu *sync.Mutex, e *envelope) error {
	wmu.Lock()
	defer wmu.Unlock()
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	return writeFrame(conn, s.cfg.MaxFrame, e)
}

// connState is what the reader and the handlers of one connection share.
type connState struct {
	s        *Server
	conn     net.Conn
	handlers sync.WaitGroup // in-flight requests on this conn
	window   chan struct{}  // per-conn request window
	wmu      sync.Mutex     // serializes response frames
	// free holds finished calls for the reader to decode the next request
	// into. At most Window calls are in flight, so it never holds more.
	free chan *call
}

// call is one request on its way through a handler goroutine. The reader
// decodes straight into e and starts run — built once per call, and a call is
// reused — so handing a request to its goroutine allocates nothing.
type call struct {
	cs  *connState
	e   envelope
	run func()
}

func (cs *connState) getCall() *call {
	select {
	case c := <-cs.free:
		return c
	default:
		c := &call{cs: cs}
		c.run = c.serve
		return c
	}
}

// serve answers the request in c.e, then returns c and its window slots.
func (c *call) serve() {
	cs, s := c.cs, c.cs.s
	defer func() {
		c.e = envelope{} // do not pin the request's strings while idle
		select {
		case cs.free <- c:
		default:
		}
		<-cs.window
		<-s.gsem
		cs.handlers.Done()
	}()
	ctx := context.Background()
	if c.e.TraceID != 0 && s.cfg.Tracer.Enabled() {
		sp, done := s.cfg.Tracer.Adopt(obs.WireContext{Trace: c.e.TraceID, Span: c.e.SpanID}, "server")
		sp.SetString("op", c.e.Req.Op.String())
		ctx = obs.ContextWithSpan(ctx, sp)
		defer done()
	}
	resp, err := Call(ctx, s.svc, c.e.Req)
	out := envelope{Seq: c.e.Seq, Resp: resp}
	if err != nil {
		out.Err = err.Error()
	}
	if werr := s.reply(cs.conn, &cs.wmu, &out); werr != nil {
		var ne net.Error
		if errors.As(werr, &ne) && ne.Timeout() {
			s.ctr.evicted.Inc() // slow client: cut it off
		}
		cs.conn.Close()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	cs := &connState{
		s:      s,
		conn:   conn,
		window: make(chan struct{}, s.cfg.Window),
		free:   make(chan *call, s.cfg.Window),
	}
	defer func() {
		// Let in-flight handlers flush their responses before the
		// connection closes — a drain must not abandon accepted work.
		cs.handlers.Wait()
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	c := cs.getCall()
	for {
		if s.draining.Load() {
			return
		}
		e := &c.e
		if err := s.readRequest(conn, e); err != nil {
			switch {
			case s.draining.Load() || errors.Is(err, io.EOF):
				// Drain nudge or clean client hangup.
			case errors.Is(err, ErrFrameTooLarge):
				s.ctr.oversized.Inc()
			case errors.Is(err, ErrWireVersion):
				// Answer before hanging up: the reply's own version byte
				// is what tells a peer at another version why, so its
				// first call fails typed instead of retrying a dead line.
				_ = s.reply(conn, &cs.wmu, &envelope{Err: err.Error()})
			default:
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					s.ctr.evicted.Inc() // idle or mid-frame stall
				}
			}
			return
		}
		if s.draining.Load() {
			// Accepted after the drain began: refuse, retryably.
			s.ctr.drainRejected.Inc()
			_ = s.reply(conn, &cs.wmu, &envelope{Seq: e.Seq, Err: ErrDraining.Error(), Retryable: true})
			return
		}
		// Backpressure: a full per-conn window or global in-flight cap
		// answers immediately with a retryable overload instead of
		// queueing unbounded goroutines.
		select {
		case cs.window <- struct{}{}:
		default:
			s.ctr.inflightRejected.Inc()
			if err := s.reply(conn, &cs.wmu, &envelope{Seq: e.Seq, Err: ErrOverloaded.Error(), Retryable: true}); err != nil {
				return
			}
			continue
		}
		select {
		case s.gsem <- struct{}{}:
		default:
			<-cs.window
			s.ctr.inflightRejected.Inc()
			if err := s.reply(conn, &cs.wmu, &envelope{Seq: e.Seq, Err: ErrOverloaded.Error(), Retryable: true}); err != nil {
				return
			}
			continue
		}
		s.ctr.requests.Inc()
		cs.handlers.Add(1)
		go c.run()
		c = cs.getCall()
	}
}

// Drain shuts the server down gracefully: stop accepting, let in-flight
// requests finish and their responses flush, then close the connections.
// Returns an error if the drain did not complete within timeout (the
// stragglers are then closed hard).
func (s *Server) Drain(timeout time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	first := !s.draining.Swap(true)
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if first {
		s.ln.Close()
	}
	// Nudge readers out of their header waits; in-flight handlers are
	// unaffected (the deadline only aborts reads).
	for _, c := range conns {
		c.SetReadDeadline(time.Now())
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var expired <-chan time.Time
	if timeout > 0 {
		expired = time.After(timeout)
	}
	select {
	case <-done:
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		return nil
	case <-expired:
		// Hard-close the stragglers but do NOT wait for their handlers: a
		// handler stuck inside the service would otherwise pin the drain
		// forever, and the caller (dlfmd) is about to exit anyway.
		s.mu.Lock()
		s.closed = true
		conns = conns[:0]
		for c := range s.conns {
			conns = append(conns, c)
		}
		s.mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
		return fmt.Errorf("upcall: drain timed out after %v", timeout)
	}
}

// Close stops the server hard: the listener and every active connection are
// closed, then in-flight handlers drain.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.draining.Store(true)
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}
