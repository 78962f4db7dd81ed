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

// lockHolder is one transaction holding a target, in the strongest mode
// it asked for.
type lockHolder struct {
	txn  uint64
	mode LockMode
}

// lockState tracks the holders of one lock target plus its wait queue.
// Waiters are woken per target — a release on one row never disturbs
// transactions queued on another. A target has one X holder or a few S
// holders, so holders is a short slice searched in place; a state whose
// last holder left goes back to its shard's free list, slices and all, and
// the next target to lock reuses it.
type lockState struct {
	holders []lockHolder
	waiters []chan struct{}
}

// holder returns the index of txn among the holders, or -1.
func (s *lockState) holder(txn uint64) int {
	for i := range s.holders {
		if s.holders[i].txn == txn {
			return i
		}
	}
	return -1
}

func (s *lockState) compatible(txn uint64, mode LockMode) bool {
	for _, h := range s.holders {
		if h.txn == txn {
			continue
		}
		if mode == LockX || h.mode == LockX {
			return false
		}
	}
	return true
}

// grant records txn as holding the target in mode: a new holder, or an
// upgrade of the one at index i (-1 when txn held nothing).
func (s *lockState) grant(i int, txn uint64, mode LockMode) {
	if i >= 0 {
		s.holders[i].mode = mode
		return
	}
	s.holders = append(s.holders, lockHolder{txn: txn, mode: mode})
}

// release drops txn from the holders.
func (s *lockState) release(txn uint64) {
	if i := s.holder(txn); i >= 0 {
		last := len(s.holders) - 1
		s.holders[i] = s.holders[last]
		s.holders = s.holders[:last]
	}
}

// wake releases every waiter queued on this target.
func (s *lockState) wake() {
	for i, ch := range s.waiters {
		close(ch)
		s.waiters[i] = nil
	}
	s.waiters = s.waiters[:0]
}

// lockShards is the number of stripes the lock table is split into. Targets
// hash across shards so concurrent transactions touching different rows
// rarely contend on the same mutex. Power of two for cheap masking.
const lockShards = 64

// lockShard is one stripe of the lock table. The map is made on the
// shard's first acquire, so a manager nobody locks through costs no maps.
type lockShard struct {
	mu    sync.Mutex
	locks map[LockTarget]*lockState
	free  []*lockState // released states kept for reuse, at most maxFreeStates
	_     [24]byte     // pad the struct to 64 bytes so shards don't share cache lines
}

// maxFreeStates bounds a shard's free list: enough for the targets a shard
// sees locked at once in steady state, without keeping a burst's worth.
const maxFreeStates = 16

// state returns target's lock state, making (or reusing) one if none exists.
func (sh *lockShard) state(target LockTarget) *lockState {
	st, ok := sh.locks[target]
	if ok {
		return st
	}
	if sh.locks == nil {
		sh.locks = make(map[LockTarget]*lockState)
	}
	if n := len(sh.free); n > 0 {
		st = sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
	} else {
		st = &lockState{}
	}
	sh.locks[target] = st
	return st
}

// retire removes a state with no holders left from the table, keeping it
// for reuse. Its waiters were woken: they look the target up afresh.
func (sh *lockShard) retire(target LockTarget, st *lockState) {
	delete(sh.locks, target)
	if len(sh.free) < maxFreeStates {
		sh.free = append(sh.free, st)
	}
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
	// not themselves contended; the mutex guards the map and heldFree, the
	// sets of finished transactions kept for the next ones (at most
	// maxFreeStates).
	heldMu   sync.Mutex
	held     map[uint64]*heldSet
	heldFree []*heldSet

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

// heldSet is the targets one transaction holds, one entry per target (an
// upgrade adds none; the mode lives in the target's lockState). It is reused
// by a later transaction once this one releases.
type heldSet struct{ targets []LockTarget }

// maxHeldReuse bounds the capacity of a held set kept for reuse: a
// transaction that scanned a big table does not pin its lock list forever.
const maxHeldReuse = 256

// NewLockManager returns a manager with the given wait timeout.
func NewLockManager(timeout time.Duration) *LockManager {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return &LockManager{
		timeout: timeout,
		closed:  make(chan struct{}),
		held:    make(map[uint64]*heldSet),
	}
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

// recordHeld notes that txn now holds target, which it did not before.
func (lm *LockManager) recordHeld(txn uint64, target LockTarget) {
	lm.heldMu.Lock()
	set, ok := lm.held[txn]
	if !ok {
		if n := len(lm.heldFree); n > 0 {
			set = lm.heldFree[n-1]
			lm.heldFree[n-1] = nil
			lm.heldFree = lm.heldFree[:n-1]
		} else {
			set = &heldSet{}
		}
		lm.held[txn] = set
	}
	set.targets = append(set.targets, target)
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
		st := sh.state(target)
		if !collided && len(sh.locks) > 1 {
			collided = true
			lm.noteCollision()
		}
		i := st.holder(txn)
		if i >= 0 && (st.holders[i].mode == LockX || st.holders[i].mode == mode) {
			sh.mu.Unlock()
			return nil // already strong enough
		}
		if st.compatible(txn, mode) {
			st.grant(i, txn, mode)
			sh.mu.Unlock()
			if i < 0 {
				lm.recordHeld(txn, target)
			}
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

// ReleaseAll drops every lock txn holds (end of strict 2PL), waking only the
// transactions queued on those targets.
func (lm *LockManager) ReleaseAll(txn uint64) {
	lm.heldMu.Lock()
	set, ok := lm.held[txn]
	delete(lm.held, txn)
	lm.heldMu.Unlock()
	if !ok {
		return
	}
	for _, target := range set.targets {
		sh := lm.shardOf(target)
		sh.mu.Lock()
		if st, ok := sh.locks[target]; ok {
			st.release(txn)
			st.wake()
			if len(st.holders) == 0 {
				sh.retire(target, st)
			}
		}
		sh.mu.Unlock()
	}
	if cap(set.targets) > maxHeldReuse {
		return // let a big set go rather than pin it
	}
	clear(set.targets) // drop the table names
	set.targets = set.targets[:0]
	lm.heldMu.Lock()
	if len(lm.heldFree) < maxFreeStates {
		lm.heldFree = append(lm.heldFree, set)
	}
	lm.heldMu.Unlock()
}

// Holding reports the mode txn holds on target (0 when none).
func (lm *LockManager) Holding(txn uint64, target LockTarget) LockMode {
	sh := lm.shardOf(target)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if st, ok := sh.locks[target]; ok {
		if i := st.holder(txn); i >= 0 {
			return st.holders[i].mode
		}
	}
	return 0
}

// ContentionStats reports waits, cumulative blocked time and shard
// collisions — the counters the concurrency experiments surface.
func (lm *LockManager) ContentionStats() (waits int64, waitTime time.Duration, shardCollisions int64) {
	return lm.waits.Load(), time.Duration(lm.waitTimeNs.Load()), lm.collisions.Load()
}
