package upcall

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"datalinks/internal/metrics"
	"datalinks/internal/obs"
	"datalinks/internal/retry"
)

// DialFunc opens one transport connection. Injectable for tests and for
// the Chaos fault injector.
type DialFunc func(addr string, timeout time.Duration) (net.Conn, error)

// netDial is the production DialFunc.
func netDial(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

// ClientConfig tunes the resilient upcall client. The zero value gets
// production defaults.
type ClientConfig struct {
	// PoolSize bounds the connection pool (<= 0: default 4). Each pooled
	// connection carries one request at a time; concurrency beyond the
	// pool size queues on connection checkout.
	PoolSize int
	// DialTimeout bounds one connection attempt (<= 0: default 2s).
	DialTimeout time.Duration
	// OpTimeout is the overall per-op deadline applied by Upcall (the
	// context-free entry point) across all retry attempts (<= 0: default
	// 5s). UpcallCtx callers bring their own deadline instead.
	OpTimeout time.Duration
	// AttemptTimeout bounds one attempt's I/O — write the request, read
	// the response (<= 0: default 1s). A lost reply therefore costs one
	// attempt, not the whole op budget.
	AttemptTimeout time.Duration
	// MaxFrame bounds one frame's payload (<= 0: DefaultMaxFrame).
	MaxFrame int
	// Retry paces the attempts: capped exponential backoff with full
	// jitter. Zero value = retry defaults (4 attempts, 2ms..250ms).
	Retry retry.Policy
	// Breaker configures the circuit breaker (nil: breaker defaults).
	Breaker *retry.BreakerConfig
	// DisableBreaker turns the circuit breaker off entirely.
	DisableBreaker bool
	// Metrics receives upcall.retries / upcall.giveups /
	// upcall.breaker_open and the pool counters (nil: private registry).
	Metrics *metrics.Registry
	// Dial is injectable for tests (nil: TCP dial).
	Dial DialFunc
	// Chaos, when set, wraps Dial so every connection injects faults
	// (drops, delays, resets, partitions) deterministically.
	Chaos *Chaos
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.PoolSize <= 0 {
		c.PoolSize = 4
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = 5 * time.Second
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = time.Second
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	if c.Dial == nil {
		c.Dial = netDial
	}
	if c.Chaos != nil {
		c.Dial = c.Chaos.WrapDial(c.Dial)
	}
	return c
}

// clientConn is one pooled connection.
type clientConn struct {
	conn net.Conn
	r    *bufio.Reader
}

// Client is a fault-tolerant Service talking to a remote Server over a
// pool of TCP connections. Transport faults retire the connection they
// happened on (no state ever leaks into the next request) and are retried
// with capped exponential backoff under the per-op deadline; repeated
// failures open the circuit breaker, which fails fast and half-opens after
// a cooldown.
type Client struct {
	addr     string
	cfg      ClientConfig
	policy   retry.Policy // cfg.Retry with the retries counter hooked into OnRetry
	classify retry.Classifier
	breaker  *retry.Breaker
	idle     chan *clientConn
	slots    chan struct{} // bounds total live connections
	seq      atomic.Uint64

	mu     sync.Mutex
	conns  map[*clientConn]struct{}
	closed bool

	ctr clientCounters
}

type clientCounters struct {
	retries     *metrics.Counter
	giveups     *metrics.Counter
	breakerOpen *metrics.Counter
	dials       *metrics.Counter
	retired     *metrics.Counter
}

// Dial connects to a Server with default resilience settings. It dials one
// connection eagerly so an unreachable daemon fails fast.
func Dial(addr string) (*Client, error) {
	return DialConfig(addr, ClientConfig{})
}

// DialConfig connects to a Server with explicit settings.
func DialConfig(addr string, cfg ClientConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	c := &Client{
		addr:  addr,
		cfg:   cfg,
		idle:  make(chan *clientConn, cfg.PoolSize),
		slots: make(chan struct{}, cfg.PoolSize),
		conns: make(map[*clientConn]struct{}),
		ctr: clientCounters{
			retries:     cfg.Metrics.Counter("upcall.retries"),
			giveups:     cfg.Metrics.Counter("upcall.giveups"),
			breakerOpen: cfg.Metrics.Counter("upcall.breaker_open"),
			dials:       cfg.Metrics.Counter("upcall.conns_dialed"),
			retired:     cfg.Metrics.Counter("upcall.conns_retired"),
		},
	}
	c.classify = defaultClassify
	c.policy = cfg.Retry
	userOnRetry := cfg.Retry.OnRetry
	c.policy.OnRetry = func(attempt int, err error, d time.Duration) {
		c.ctr.retries.Inc()
		if userOnRetry != nil {
			userOnRetry(attempt, err, d)
		}
	}
	if !cfg.DisableBreaker {
		bcfg := retry.BreakerConfig{}
		if cfg.Breaker != nil {
			bcfg = *cfg.Breaker
		}
		userOnOpen := bcfg.OnOpen
		bcfg.OnOpen = func() {
			c.ctr.breakerOpen.Inc()
			if userOnOpen != nil {
				userOnOpen()
			}
		}
		c.breaker = retry.NewBreaker(bcfg)
	}
	// Eager first connection: an unreachable daemon fails the Dial, not
	// the first upcall.
	c.slots <- struct{}{}
	cc, err := c.dial()
	if err != nil {
		<-c.slots
		return nil, err
	}
	c.idle <- cc
	return c, nil
}

// defaultClassify is the upcall error classifier: connection-scoped faults
// and server backpressure are retryable; everything else — auth and
// protocol rejections, context expiry, the open circuit breaker — is
// permanent. A wire version mismatch is checked first: it arrives on a
// connection that was then retired, but a retry would meet the same peer.
func defaultClassify(err error) retry.Class {
	switch {
	case errors.Is(err, ErrWireVersion):
		return retry.Permanent
	case errors.Is(err, ErrConnLost), errors.Is(err, ErrOverloaded), errors.Is(err, ErrDraining):
		return retry.Retryable
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return retry.Retryable
	}
	return retry.Permanent
}

// Addr returns the daemon address this client talks to.
func (c *Client) Addr() string { return c.addr }

// Metrics exposes the client-side registry.
func (c *Client) Metrics() *metrics.Registry { return c.cfg.Metrics }

// Upcall sends the request under the configured per-op deadline, retrying
// transient transport faults with backoff.
func (c *Client) Upcall(req Request) (Response, error) {
	return c.UpcallCtx(context.Background(), req)
}

// UpcallCtx sends the request under the caller's context. The context
// deadline bounds the whole op — every attempt, every backoff sleep; a
// context without a deadline falls back to the configured OpTimeout so a
// span-carrying context can never disable the per-op bound. The fallback is
// carried as a plain deadline and the retry loop's budget, not a derived
// context: arming and cancelling a timer context was a third of what one
// call allocated, for a timer that fires only when the op is already lost.
func (c *Client) UpcallCtx(ctx context.Context, req Request) (Response, error) {
	p := c.policy
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Now().Add(c.cfg.OpTimeout)
		if p.Budget <= 0 || p.Budget > c.cfg.OpTimeout {
			p.Budget = c.cfg.OpTimeout
		}
	}
	var resp Response
	err := retry.Do(ctx, p, c.classify, func(ctx context.Context) error {
		if c.breaker != nil {
			if berr := c.breaker.Allow(); berr != nil {
				return berr
			}
		}
		r, aerr := c.attempt(ctx, deadline, req)
		if c.breaker != nil {
			if aerr != nil && c.classify(aerr) == retry.Retryable {
				c.breaker.Failure()
			} else {
				// The daemon answered — even a permanent rejection means
				// the transport works.
				c.breaker.Success()
			}
		}
		if aerr == nil {
			resp = r
		}
		return aerr
	})
	if err != nil && (c.classify(err) == retry.Retryable || errors.Is(err, retry.ErrOpen)) {
		c.ctr.giveups.Inc()
	}
	return resp, err
}

// attempt runs one request/response exchange on one pooled connection.
// Any connection-scoped fault retires the connection so its state (a stale
// in-flight response, a half-written frame) can never poison a later
// request. Each attempt gets its own "wire" span — a retried op therefore
// shows one trace with N wire-attempt children, and injected chaos delay on
// this connection is attributed to the wire span it actually slowed.
func (c *Client) attempt(ctx context.Context, opDeadline time.Time, req Request) (Response, error) {
	wire := obs.SpanFrom(ctx).Child("wire")
	defer wire.End()
	wire.SetString("op", req.Op.String())
	wire.SetInt("attempt", int64(retry.Attempt(ctx)))
	fail := func(err error) (Response, error) {
		wire.SetString("error", err.Error())
		return Response{}, err
	}
	cc, err := c.get(ctx, opDeadline)
	if err != nil {
		return fail(err)
	}
	var chaosBefore time.Duration
	chaos, _ := cc.conn.(*chaosConn)
	if chaos != nil && wire != nil {
		chaosBefore = chaos.injectedDelay()
	}
	deadline := time.Now().Add(c.cfg.AttemptTimeout)
	if opDeadline.Before(deadline) {
		deadline = opDeadline
	}
	cc.conn.SetDeadline(deadline)
	seq := c.seq.Add(1)
	wc := wire.Wire()
	if err := writeFrame(cc.conn, c.cfg.MaxFrame, &envelope{Seq: seq, Req: req, TraceID: wc.Trace, SpanID: wc.Span}); err != nil {
		c.retire(cc)
		return fail(connLost(err))
	}
	var out envelope
	if err := readFrame(cc.r, c.cfg.MaxFrame, &out); err != nil {
		c.retire(cc)
		if chaos != nil && wire != nil {
			wire.SetFloat("chaos_delay_ms", float64(chaos.injectedDelay()-chaosBefore)/1e6)
		}
		if errors.Is(err, ErrWireVersion) {
			return fail(err) // not a lost connection: a fresh one reaches the same peer
		}
		return fail(connLost(err))
	}
	if chaos != nil && wire != nil {
		wire.SetFloat("chaos_delay_ms", float64(chaos.injectedDelay()-chaosBefore)/1e6)
	}
	if out.Seq != seq {
		// A response meant for an earlier request on this connection:
		// the stream is out of sync, kill it.
		c.retire(cc)
		return fail(connLost(fmt.Errorf("response seq %d for request seq %d", out.Seq, seq)))
	}
	cc.conn.SetDeadline(time.Time{})
	c.put(cc)
	if out.Err != "" {
		if out.Retryable {
			if out.Err == ErrDraining.Error() {
				return out.Resp, fmt.Errorf("%w: %w", ErrTransport, ErrDraining)
			}
			return out.Resp, fmt.Errorf("%w: %w", ErrTransport, ErrOverloaded)
		}
		// Service-level error: the daemon answered; surface it verbatim.
		return out.Resp, errors.New(out.Err)
	}
	return out.Resp, nil
}

// get checks a connection out of the pool, dialing a fresh one when a pool
// slot is free, or waiting for a connection (or the context, or the op
// deadline) otherwise.
func (c *Client) get(ctx context.Context, opDeadline time.Time) (*clientConn, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, connLost(errors.New("client closed"))
	}
	select {
	case cc := <-c.idle:
		return cc, nil
	default:
	}
	expired := time.NewTimer(time.Until(opDeadline))
	defer expired.Stop()
	select {
	case cc := <-c.idle:
		return cc, nil
	case c.slots <- struct{}{}:
		cc, err := c.dial()
		if err != nil {
			<-c.slots
			return nil, err
		}
		return cc, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-expired.C:
		return nil, context.DeadlineExceeded
	}
}

// dial opens one connection; the caller owns a pool slot.
func (c *Client) dial() (*clientConn, error) {
	conn, err := c.cfg.Dial(c.addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, connLost(err)
	}
	cc := &clientConn{conn: conn, r: bufio.NewReader(conn)}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return nil, connLost(errors.New("client closed"))
	}
	c.conns[cc] = struct{}{}
	c.mu.Unlock()
	c.ctr.dials.Inc()
	return cc, nil
}

// put returns a healthy connection to the pool.
func (c *Client) put(cc *clientConn) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		cc.conn.Close()
		return
	}
	select {
	case c.idle <- cc:
	default:
		c.retire(cc)
	}
}

// retire closes a connection and releases its pool slot.
func (c *Client) retire(cc *clientConn) {
	cc.conn.Close()
	c.mu.Lock()
	_, tracked := c.conns[cc]
	delete(c.conns, cc)
	c.mu.Unlock()
	if tracked {
		select {
		case <-c.slots:
		default:
		}
		c.ctr.retired.Inc()
	}
}

// Close tears the client down: the pool empties and every connection —
// including ones busy with an in-flight attempt — closes, failing those
// attempts promptly.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	conns := make([]*clientConn, 0, len(c.conns))
	for cc := range c.conns {
		conns = append(conns, cc)
	}
	c.conns = make(map[*clientConn]struct{})
	c.mu.Unlock()
	for _, cc := range conns {
		cc.conn.Close()
	}
	for {
		select {
		case <-c.idle:
		default:
			return
		}
	}
}

// NetConfig bundles the client and server tuning for one deployment's
// upcall plane (core.ServerConfig plumbs it through).
type NetConfig struct {
	Client ClientConfig
	Server ServerConfig
}
