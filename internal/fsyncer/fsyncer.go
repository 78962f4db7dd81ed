// Package fsyncer centralizes the durability policy of the archive's disk
// writers: the chunkdisk packfile/blob store and the catalog manifest log
// share one policy knob and one group-commit implementation.
//
// Three policies:
//
//	none    writes rely on the OS flushing its page cache (the pre-PR-5
//	        behaviour). Fastest; a power loss can lose the tail of recent
//	        commits, which torn-tail recovery then trims.
//	always  every append is followed by its own fdatasync before the write
//	        is acknowledged. Strongest per-operation guarantee, one device
//	        flush per append.
//	group   appends are acknowledged only after a flush that STARTED after
//	        the append completed — but concurrent committers coalesce behind
//	        a single fdatasync (leader/follower group commit). Same power-
//	        loss guarantee as always at the commit-barrier granularity, a
//	        fraction of the flushes under concurrency.
//
// The group algorithm is round-based: a committer needing durability waits
// for the completion of any flush that began after its write. If no flush is
// running it becomes the leader of the next round; everyone who arrived while
// a round was in flight is covered by the following round, which one of them
// leads. N concurrent committers therefore cost at most two flushes per
// batch, not N.
package fsyncer

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Policy selects how writes reach stable storage.
type Policy int

const (
	// PolicyNone never issues fsync; the OS page cache is the only barrier.
	PolicyNone Policy = iota
	// PolicyGroup coalesces concurrent commit barriers behind shared flushes.
	PolicyGroup
	// PolicyAlways flushes after every write.
	PolicyAlways
)

// ParsePolicy reads a policy from its flag/config spelling. The empty string
// is PolicyNone (the zero-config default).
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "none":
		return PolicyNone, nil
	case "group":
		return PolicyGroup, nil
	case "always":
		return PolicyAlways, nil
	}
	return PolicyNone, fmt.Errorf("fsyncer: unknown fsync policy %q (want none, group or always)", s)
}

// String renders the policy in its flag spelling.
func (p Policy) String() string {
	switch p {
	case PolicyGroup:
		return "group"
	case PolicyAlways:
		return "always"
	default:
		return "none"
	}
}

// Syncer applies one policy to one logical write stream (a file, or a small
// family of files flushed by one callback). Safe for concurrent use.
type Syncer struct {
	policy Policy
	delay  time.Duration
	flush  func() error
	onSync func()
	syncs  atomic.Int64

	mu        sync.Mutex
	cond      *sync.Cond
	flushing  bool
	starts    uint64 // flush rounds begun
	completes uint64 // flush rounds finished
	lastErr   error  // result of the newest completed round
}

// New builds a syncer. flush performs the physical fdatasync (it is called
// outside the syncer's lock and must be safe to call concurrently with
// writes). delay, for PolicyGroup, is how long a group leader waits before
// flushing so more committers can pile into the round; zero flushes
// immediately (back-to-back rounds already batch). onSync, if non-nil, is
// invoked once per physical flush (metrics mirroring).
func New(policy Policy, delay time.Duration, flush func() error, onSync func()) *Syncer {
	s := &Syncer{policy: policy, delay: delay, flush: flush, onSync: onSync}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Policy reports the configured policy.
func (s *Syncer) Policy() Policy { return s.policy }

// Count reports how many physical flushes have been issued.
func (s *Syncer) Count() int64 { return s.syncs.Load() }

// doFlush runs one physical flush and counts it.
func (s *Syncer) doFlush() error {
	err := s.flush()
	s.syncs.Add(1)
	if s.onSync != nil {
		s.onSync()
	}
	return err
}

// AfterWrite is the per-append hook: PolicyAlways flushes inline, the other
// policies do nothing (group defers to the commit Barrier, none to the OS).
func (s *Syncer) AfterWrite() error {
	if s.policy != PolicyAlways {
		return nil
	}
	return s.doFlush()
}

// Barrier is the commit hook: under PolicyGroup it returns only after a
// flush that started after the caller's writes has completed, sharing that
// flush with every concurrent committer. PolicyAlways already flushed per
// write and PolicyNone promises nothing, so both return immediately.
func (s *Syncer) Barrier() error {
	_, err := s.BarrierRound()
	return err
}

// BarrierRound is Barrier, additionally reporting the 1-based group-commit
// round whose completion made the caller's writes durable (0 when the policy
// has no rounds — none/always don't group). Traces attach it to the fsync
// span so one commit can be placed in its round.
func (s *Syncer) BarrierRound() (uint64, error) {
	if s.policy != PolicyGroup {
		return 0, nil
	}
	s.mu.Lock()
	// Any round that BEGINS after this point covers our writes. If a round is
	// running it may have started before our last write, so we need the next
	// one; if none is running we lead it ourselves.
	need := s.starts + 1
	for {
		if s.completes >= need {
			err := s.lastErr
			s.mu.Unlock()
			return need, err
		}
		if !s.flushing {
			s.flushing = true
			s.starts++
			round := s.starts
			s.mu.Unlock()
			if s.delay > 0 {
				// Coalescing window: let more committers join this round
				// (their writes before the flush are covered for free; their
				// Barriers still wait for the next round, conservatively).
				time.Sleep(s.delay)
			}
			err := s.doFlush()
			s.mu.Lock()
			s.flushing = false
			s.completes = round
			s.lastErr = err
			s.cond.Broadcast()
			continue // the completes check returns our own round's result
		}
		s.cond.Wait()
	}
}
