package upcall

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Delay is a uniform injected-latency distribution: with probability Prob,
// a message is delayed by a duration uniform in [Min, Max].
type Delay struct {
	Prob float64
	Min  time.Duration
	Max  time.Duration
}

// Chaos injects transport faults deterministically (seeded PRNG) so every
// failure mode of the network plane is testable without a flaky network:
//
//   - DropProb: the message is swallowed — sent into the void, no reply
//     ever comes (the reader's deadline fires; the classic lost-ack case).
//   - ResetProb: the connection is torn down mid-operation.
//   - DelayDist: the message is delayed (tail-latency injection).
//   - Partition: while set, every dial and every in-flight message fails
//     (a full network partition).
//
// Wrap a TCP client's dialer with WrapDial (every connection's reads/writes
// then roll the dice), or consult Strike per message of another stream.
// Enable(false) turns all injection off — a soak can end with a clean
// verification phase over the same transport.
type Chaos struct {
	Seed      int64
	DropProb  float64
	ResetProb float64
	DelayDist Delay

	mu  sync.Mutex
	rng *rand.Rand

	disabled    atomic.Bool
	partitioned atomic.Bool

	drops    atomic.Int64
	resets   atomic.Int64
	delays   atomic.Int64
	partHits atomic.Int64
}

// Injected fault errors. All are connection-scoped: the client classifies
// them retryable via ErrConnLost.
var (
	errChaosDropped     = errors.New("chaos: message dropped")
	errChaosReset       = errors.New("chaos: connection reset")
	errChaosPartitioned = errors.New("chaos: network partitioned")
)

// Enable turns fault injection on or off (a zero-value Chaos starts on).
func (c *Chaos) Enable(on bool) { c.disabled.Store(!on) }

// Partition simulates a full network partition while on.
func (c *Chaos) Partition(on bool) { c.partitioned.Store(on) }

// active reports whether faults should be injected at all.
func (c *Chaos) active() bool { return c != nil && !c.disabled.Load() }

// ChaosStats counts the faults injected so far.
type ChaosStats struct {
	Drops, Resets, Delays, PartitionHits int64
}

// Stats returns the injected-fault counters.
func (c *Chaos) Stats() ChaosStats {
	return ChaosStats{
		Drops:         c.drops.Load(),
		Resets:        c.resets.Load(),
		Delays:        c.delays.Load(),
		PartitionHits: c.partHits.Load(),
	}
}

// roll decides one message's fate.
func (c *Chaos) roll() (delay time.Duration, drop, reset bool) {
	c.mu.Lock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.Seed))
	}
	rDelay := c.rng.Float64()
	var span int64
	if c.DelayDist.Max > c.DelayDist.Min {
		span = c.rng.Int63n(int64(c.DelayDist.Max - c.DelayDist.Min))
	}
	rDrop := c.rng.Float64()
	rReset := c.rng.Float64()
	c.mu.Unlock()
	if rDelay < c.DelayDist.Prob {
		delay = c.DelayDist.Min + time.Duration(span)
		c.delays.Add(1)
	}
	drop = rDrop < c.DropProb
	reset = rReset < c.ResetProb
	return delay, drop, reset
}

// Strike rolls one replication-stream frame's fate: nil means the frame goes
// through; an ErrConnLost-wrapped error means it was dropped, reset, or hit
// a partition (the caller's retry discipline classifies it transient exactly
// like an upcall transport fault). Injected delays sleep here, modelling a
// slow replica link. This is the hook that extends Chaos beyond the upcall
// wire to any message stream — the shard replicator consults it per ship
// frame.
func (c *Chaos) Strike() error {
	if !c.active() {
		return nil
	}
	if c.partitioned.Load() {
		c.partHits.Add(1)
		return connLost(errChaosPartitioned)
	}
	delay, drop, reset := c.roll()
	if delay > 0 {
		time.Sleep(delay)
	}
	if reset {
		c.resets.Add(1)
		return connLost(errChaosReset)
	}
	if drop {
		c.drops.Add(1)
		return connLost(errChaosDropped)
	}
	return nil
}

// WrapDial wraps a DialFunc so every connection it opens injects faults at
// the read/write level (nil dial = the production TCP dialer). A dropped
// write is swallowed silently — the request may or may not have reached the
// daemon, and only the reader's deadline uncovers it. That is the case that makes retry discipline hard, so it is
// the one the chaos tests lean on.
func (c *Chaos) WrapDial(dial DialFunc) DialFunc {
	if dial == nil {
		dial = netDial
	}
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		if c.active() && c.partitioned.Load() {
			c.partHits.Add(1)
			return nil, errChaosPartitioned
		}
		conn, err := dial(addr, timeout)
		if err != nil {
			return nil, err
		}
		return &chaosConn{Conn: conn, c: c}, nil
	}
}

// chaosConn injects faults on a live connection. injected accumulates the
// delay this connection has slept so far (nanoseconds); the client reads the
// delta around one request's I/O to attribute injected latency to that
// request's wire span (attr chaos_delay_ms).
type chaosConn struct {
	net.Conn
	c        *Chaos
	injected atomic.Int64
}

// injectedDelay returns the total delay injected on this connection so far.
func (cc *chaosConn) injectedDelay() time.Duration {
	return time.Duration(cc.injected.Load())
}

func (cc *chaosConn) Write(p []byte) (int, error) {
	c := cc.c
	if !c.active() {
		return cc.Conn.Write(p)
	}
	if c.partitioned.Load() {
		c.partHits.Add(1)
		cc.Conn.Close()
		return 0, errChaosPartitioned
	}
	delay, drop, reset := c.roll()
	if delay > 0 {
		cc.injected.Add(int64(delay))
		time.Sleep(delay)
	}
	if reset {
		c.resets.Add(1)
		cc.Conn.Close()
		return 0, errChaosReset
	}
	if drop {
		// Swallowed: pretend success. The reply never comes and the
		// read deadline uncovers the loss.
		c.drops.Add(1)
		return len(p), nil
	}
	return cc.Conn.Write(p)
}

func (cc *chaosConn) Read(p []byte) (int, error) {
	c := cc.c
	if !c.active() {
		return cc.Conn.Read(p)
	}
	if c.partitioned.Load() {
		c.partHits.Add(1)
		cc.Conn.Close()
		return 0, errChaosPartitioned
	}
	delay, _, reset := c.roll()
	if delay > 0 {
		cc.injected.Add(int64(delay))
		time.Sleep(delay)
	}
	if reset {
		c.resets.Add(1)
		cc.Conn.Close()
		return 0, errChaosReset
	}
	return cc.Conn.Read(p)
}
