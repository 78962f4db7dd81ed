package sqlmini

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// LockMode is the strength of a lock request.
type LockMode uint8

// Lock modes: shared (readers) and exclusive (writers).
const (
	LockS LockMode = iota + 1
	LockX
)

func (m LockMode) String() string {
	if m == LockS {
		return "S"
	}
	return "X"
}

// LockTarget names a lockable object: a whole table or one row.
type LockTarget struct {
	Table string
	Row   RowID
	Whole bool // table-level lock when true
}

func (t LockTarget) String() string {
	if t.Whole {
		return t.Table
	}
	return fmt.Sprintf("%s[%d]", t.Table, t.Row)
}

// ErrLockTimeout is returned when a lock cannot be granted within the
// manager's timeout; the engine treats it as a deadlock victim signal.
var ErrLockTimeout = errors.New("sqlmini: lock wait timeout (possible deadlock)")

// ErrLockManagerClosed fails every Acquire, parked or later, once the manager
// is closed: the holders a waiter queued behind died with their process and
// will never release.
var ErrLockManagerClosed = errors.New("sqlmini: lock manager closed")

// lockState tracks the holders of one lock target plus its wait queue.
// Waiters are woken per target — a release on one row never disturbs
// transactions queued on another.
type lockState struct {
	holders map[uint64]LockMode // txnID -> strongest mode held
	waiters []chan struct{}
}

func (s *lockState) compatible(txn uint64, mode LockMode) bool {
	for id, held := range s.holders {
		if id == txn {
			continue
		}
		if mode == LockX || held == LockX {
			return false
		}
	}
	return true
}

// wake releases every waiter queued on this target.
func (s *lockState) wake() {
	for _, ch := range s.waiters {
		close(ch)
	}
	s.waiters = nil
}

// lockShards is the number of stripes the lock table is split into. Targets
// hash across shards so concurrent transactions touching different rows
// rarely contend on the same mutex. Power of two for cheap masking.
const lockShards = 64

// lockShard is one stripe of the lock table.
type lockShard struct {
	mu    sync.Mutex
	locks map[LockTarget]*lockState
	_     [48]byte // pad the struct to 64 bytes so shards don't share cache lines
}

// LockManager implements strict two-phase locking with timeout-based
// deadlock resolution. All locks a transaction holds are released together
// at commit or abort.
//
// The lock table is striped into shards with per-target wait queues: an
// acquire touches exactly one shard mutex, and a release wakes only the
// transactions queued on the released targets — there is no global mutex
// and no global broadcast.
type LockManager struct {
	shards    [lockShards]lockShard
	timeout   time.Duration
	closed    chan struct{}
	closeOnce sync.Once

	// held maps txn -> its locks, for strict-2PL release-all. A transaction
	// is driven by one goroutine at a time (2PL), so entries for one txn are
	// not themselves contended; the mutex only guards the outer map.
	heldMu sync.Mutex
	held   map[uint64]map[LockTarget]LockMode

	// Contention accounting, read by the E6/E13 experiments and exported to
	// a metrics registry when one is attached.
	waitTimeNs atomic.Int64 // total blocked time
	waits      atomic.Int64 // acquires that blocked at least once
	collisions atomic.Int64 // acquires that found an unrelated target on their shard

	mWaits, mWaitNs, mCollisions metricCounter
}

// metricCounter decouples the manager from the metrics package: internal/
// metrics.Counter satisfies it. Nil means "not attached".
type metricCounter interface{ Add(int64) }

// NewLockManager returns a manager with the given wait timeout.
func NewLockManager(timeout time.Duration) *LockManager {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	lm := &LockManager{
		timeout: timeout,
		closed:  make(chan struct{}),
		held:    make(map[uint64]map[LockTarget]LockMode),
	}
	for i := range lm.shards {
		lm.shards[i].locks = make(map[LockTarget]*lockState)
	}
	return lm
}

// AttachMetrics mirrors the contention counters into a metrics registry
// under the given counter handles (lock waits, blocked nanoseconds, shard
// collisions). Call before concurrent use.
func (lm *LockManager) AttachMetrics(waits, waitNs, collisions metricCounter) {
	lm.mWaits, lm.mWaitNs, lm.mCollisions = waits, waitNs, collisions
}

// Close fails every parked and every later Acquire with ErrLockManagerClosed.
// Idempotent.
func (lm *LockManager) Close() {
	lm.closeOnce.Do(func() { close(lm.closed) })
}

// shardOf hashes a target onto its stripe (FNV-1a).
func (lm *LockManager) shardOf(target LockTarget) *lockShard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(target.Table); i++ {
		h = (h ^ uint32(target.Table[i])) * prime32
	}
	h = (h ^ uint32(target.Row)) * prime32
	h = (h ^ uint32(target.Row>>32)) * prime32
	if target.Whole {
		h = (h ^ 0x57) * prime32
	}
	return &lm.shards[h&(lockShards-1)]
}

// recordHeld notes that txn now holds target in mode.
func (lm *LockManager) recordHeld(txn uint64, target LockTarget, mode LockMode) {
	lm.heldMu.Lock()
	byTxn, ok := lm.held[txn]
	if !ok {
		byTxn = make(map[LockTarget]LockMode)
		lm.held[txn] = byTxn
	}
	byTxn[target] = mode
	lm.heldMu.Unlock()
}

// Acquire blocks until txn holds target in at least mode, times out, or the
// manager is closed. Re-acquiring a held lock (same or weaker mode) is a
// no-op; S→X upgrade is granted when no other transaction holds the lock.
func (lm *LockManager) Acquire(txn uint64, target LockTarget, mode LockMode) error {
	sh := lm.shardOf(target)
	deadline := time.Now().Add(lm.timeout)
	waited := time.Duration(0)
	collided := false
	for {
		select {
		case <-lm.closed:
			return fmt.Errorf("%w: txn %d waiting for %s %s", ErrLockManagerClosed, txn, mode, target)
		default:
		}
		sh.mu.Lock()
		st, ok := sh.locks[target]
		if !ok {
			st = &lockState{holders: make(map[uint64]LockMode)}
			sh.locks[target] = st
		}
		if !collided && len(sh.locks) > 1 {
			collided = true
			lm.noteCollision()
		}
		if held, has := st.holders[txn]; has && (held == LockX || held == mode) {
			sh.mu.Unlock()
			return nil // already strong enough
		}
		if st.compatible(txn, mode) {
			st.holders[txn] = mode
			sh.mu.Unlock()
			lm.recordHeld(txn, target, mode)
			if waited > 0 {
				lm.noteWait(waited)
			}
			return nil
		}
		// Incompatible: queue on this target and wait for a release or the
		// deadline, whichever comes first.
		remaining := time.Until(deadline)
		if remaining <= 0 {
			sh.mu.Unlock()
			if waited > 0 {
				lm.noteWait(waited)
			}
			return fmt.Errorf("%w: txn %d waiting for %s %s", ErrLockTimeout, txn, mode, target)
		}
		ch := make(chan struct{})
		st.waiters = append(st.waiters, ch)
		sh.mu.Unlock()

		start := time.Now()
		timer := time.NewTimer(remaining)
		select {
		case <-ch:
			timer.Stop()
		case <-lm.closed:
			timer.Stop()
		case <-timer.C:
		}
		waited += time.Since(start)
	}
}

// noteWait records one blocked acquire.
func (lm *LockManager) noteWait(waited time.Duration) {
	lm.waitTimeNs.Add(int64(waited))
	lm.waits.Add(1)
	if lm.mWaits != nil {
		lm.mWaits.Add(1)
	}
	if lm.mWaitNs != nil {
		lm.mWaitNs.Add(int64(waited))
	}
}

// noteCollision records an acquire that shared its shard with another target.
func (lm *LockManager) noteCollision() {
	lm.collisions.Add(1)
	if lm.mCollisions != nil {
		lm.mCollisions.Add(1)
	}
}

// TryAcquire is the NOWAIT variant: it errors immediately on conflict.
func (lm *LockManager) TryAcquire(txn uint64, target LockTarget, mode LockMode) error {
	sh := lm.shardOf(target)
	sh.mu.Lock()
	st, ok := sh.locks[target]
	if !ok {
		st = &lockState{holders: make(map[uint64]LockMode)}
		sh.locks[target] = st
	}
	if held, has := st.holders[txn]; has && (held == LockX || held == mode) {
		sh.mu.Unlock()
		return nil
	}
	if !st.compatible(txn, mode) {
		sh.mu.Unlock()
		return fmt.Errorf("%w: txn %d needs %s %s", ErrLockTimeout, txn, mode, target)
	}
	st.holders[txn] = mode
	sh.mu.Unlock()
	lm.recordHeld(txn, target, mode)
	return nil
}

// ReleaseAll drops every lock txn holds (end of strict 2PL), waking only the
// transactions queued on those targets.
func (lm *LockManager) ReleaseAll(txn uint64) {
	lm.heldMu.Lock()
	targets := lm.held[txn]
	delete(lm.held, txn)
	lm.heldMu.Unlock()
	for target := range targets {
		sh := lm.shardOf(target)
		sh.mu.Lock()
		if st, ok := sh.locks[target]; ok {
			delete(st.holders, txn)
			st.wake()
			if len(st.holders) == 0 {
				delete(sh.locks, target)
			}
		}
		sh.mu.Unlock()
	}
}

// Holding reports the mode txn holds on target (0 when none).
func (lm *LockManager) Holding(txn uint64, target LockTarget) LockMode {
	lm.heldMu.Lock()
	defer lm.heldMu.Unlock()
	return lm.held[txn][target]
}

// ContentionStats reports waits, cumulative blocked time and shard
// collisions — the counters the concurrency experiments surface.
func (lm *LockManager) ContentionStats() (waits int64, waitTime time.Duration, shardCollisions int64) {
	return lm.waits.Load(), time.Duration(lm.waitTimeNs.Load()), lm.collisions.Load()
}
