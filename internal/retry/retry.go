// Package retry implements the client-side fault-tolerance discipline for
// the DataLinks network plane: an error classifier separating transient
// transport faults from permanent protocol/auth failures, capped exponential
// backoff with full jitter, attempt and wall-clock budgets, and a circuit
// breaker that fails fast while a peer is down and half-opens after a
// cooldown.
//
// The package is deliberately transport-agnostic: internal/upcall supplies
// the classifier that knows which of its errors are retryable, and the
// executor here owns only the pacing and give-up policy.
package retry

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"
)

// Class is the verdict of a Classifier.
type Class int

const (
	// Permanent errors must not be retried: the peer answered, and the
	// answer will not change (auth rejection, protocol violation, invalid
	// request). Retrying would only add load and latency.
	Permanent Class = iota
	// Retryable errors are transient transport faults (connection lost,
	// dial refused, I/O deadline exceeded, server overloaded) where a
	// fresh attempt has a real chance of succeeding.
	Retryable
)

// Classifier decides whether an error is worth retrying. A nil classifier
// treats every error as Permanent (no retries).
type Classifier func(error) Class

// Policy bounds a retry loop. The zero value is usable: WithDefaults fills
// in conservative settings (4 attempts, 2ms..250ms full-jitter backoff).
type Policy struct {
	// MaxAttempts is the total number of attempts including the first
	// (<= 0: default 4; 1 disables retries).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (<= 0: default 2ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (<= 0: default 250ms).
	MaxDelay time.Duration
	// Multiplier is the exponential growth factor (<= 1: default 2).
	Multiplier float64
	// Budget bounds the total wall-clock time the loop may spend across
	// attempts and backoff sleeps (0: unbounded; the context still rules).
	Budget time.Duration
	// Jitter maps the capped exponential delay to the actual sleep.
	// nil = full jitter: uniform in [0, d]. Tests inject identity for
	// determinism.
	Jitter func(d time.Duration) time.Duration
	// OnRetry, if set, is called before each backoff sleep with the attempt
	// number that just failed (1-based), its error, and the chosen delay.
	// Metrics hooks live here.
	OnRetry func(attempt int, err error, delay time.Duration)
}

// WithDefaults returns the policy with unset knobs filled in.
func (p Policy) WithDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 2 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 250 * time.Millisecond
	}
	if p.Multiplier <= 1 {
		p.Multiplier = 2
	}
	return p
}

// jitterRand is the process-wide jitter source. Seeded once; full jitter
// needs no reproducibility (tests inject Policy.Jitter instead).
var (
	jitterMu   sync.Mutex
	jitterRand = rand.New(rand.NewSource(time.Now().UnixNano()))
)

// Delay returns the backoff before retry number retryN (1-based): the capped
// exponential BaseDelay·Multiplier^(retryN-1) passed through the jitter.
func (p Policy) Delay(retryN int) time.Duration {
	p = p.WithDefaults()
	d := float64(p.BaseDelay)
	for i := 1; i < retryN; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			break
		}
	}
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter != nil {
		return p.Jitter(time.Duration(d))
	}
	jitterMu.Lock()
	defer jitterMu.Unlock()
	return time.Duration(jitterRand.Int63n(int64(d) + 1))
}

// attemptKey carries the 1-based attempt number into op's context.
type attemptKey struct{}

// Attempt returns the 1-based attempt number of the retry loop the context
// belongs to, or 1 outside a Do loop. Tracing uses it to label wire-attempt
// spans without threading another parameter through every transport layer.
func Attempt(ctx context.Context) int {
	if n, ok := ctx.Value(attemptKey{}).(int); ok {
		return n
	}
	return 1
}

// Do runs op until it succeeds, returns a Permanent error, exhausts
// MaxAttempts, exceeds Budget, or the context ends. The last error is
// returned as-is so callers can errors.Is/As against the underlying cause.
func Do(ctx context.Context, p Policy, classify Classifier, op func(ctx context.Context) error) error {
	p = p.WithDefaults()
	var deadline time.Time
	if p.Budget > 0 {
		deadline = time.Now().Add(p.Budget)
	}
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		opCtx := ctx
		if Attempt(ctx) != attempt { // the first attempt usually reads as 1 already
			opCtx = context.WithValue(ctx, attemptKey{}, attempt)
		}
		err := op(opCtx)
		if err == nil {
			return nil
		}
		if classify == nil || classify(err) != Retryable {
			return err
		}
		if attempt >= p.MaxAttempts {
			return err
		}
		d := p.Delay(attempt)
		if !deadline.IsZero() && time.Now().Add(d).After(deadline) {
			return err
		}
		if ctxDeadline, ok := ctx.Deadline(); ok && time.Now().Add(d).After(ctxDeadline) {
			// Sleeping would eat the whole remaining context budget; give
			// the caller its error now instead of a useless DeadlineExceeded.
			return err
		}
		if p.OnRetry != nil {
			p.OnRetry(attempt, err, d)
		}
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}

// ErrOpen is returned by Breaker.Allow while the circuit is open: the peer
// has failed repeatedly and the cooldown has not elapsed, so callers should
// fail fast instead of queueing more doomed attempts.
var ErrOpen = errors.New("retry: circuit breaker open")

// BreakerConfig tunes a Breaker.
type BreakerConfig struct {
	// Threshold is the number of consecutive transport failures that opens
	// the circuit (<= 0: default 8).
	Threshold int
	// Cooldown is how long the circuit stays open before half-opening
	// (<= 0: default 500ms).
	Cooldown time.Duration
	// Clock is injectable for tests (nil: time.Now).
	Clock func() time.Time
	// OnOpen, if set, is called on every closed/half-open → open
	// transition. Metrics hooks live here.
	OnOpen func()
}

// Breaker is a three-state circuit breaker: closed (normal operation), open
// (failing fast until the cooldown elapses), half-open (exactly one probe
// in flight decides whether to close again or re-open).
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    breakerState
	failures int
	openedAt time.Time
	probing  bool
}

type breakerState int

const (
	stateClosed breakerState = iota
	stateOpen
	stateHalfOpen
)

// NewBreaker builds a breaker; a nil config pointerless zero value works.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 8
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 500 * time.Millisecond
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Breaker{cfg: cfg}
}

// Allow reports whether a call may proceed. While open it returns ErrOpen
// until the cooldown elapses, then admits exactly one probe (half-open);
// further callers keep failing fast until that probe reports its outcome.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateClosed:
		return nil
	case stateOpen:
		if b.cfg.Clock().Sub(b.openedAt) < b.cfg.Cooldown {
			return ErrOpen
		}
		b.state = stateHalfOpen
		b.probing = true
		return nil
	default: // half-open
		if b.probing {
			return ErrOpen
		}
		b.probing = true
		return nil
	}
}

// Success reports a completed call (the peer answered — even with a
// Permanent application-level rejection, the transport works). Closes the
// circuit and resets the failure count.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = stateClosed
	b.failures = 0
	b.probing = false
}

// Failure reports a transport-level failure. The Threshold'th consecutive
// failure — or any failed half-open probe — opens the circuit.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	wasProbe := b.state == stateHalfOpen
	b.probing = false
	if wasProbe || (b.state == stateClosed && b.failures >= b.cfg.Threshold) {
		b.state = stateOpen
		b.openedAt = b.cfg.Clock()
		if b.cfg.OnOpen != nil {
			b.cfg.OnOpen()
		}
	}
}

// State reports the breaker's current state as a string (metrics/status).
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateOpen:
		return "open"
	case stateHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}
