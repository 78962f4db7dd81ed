package core

// Shard replication and failover: with ClusterConfig.Replicas = N > 1 every
// linked path has N copies — the ring owner plus its N-1 distinct ring
// successors (ring.SuccessorsFor). The owner ships each committed version's
// delta manifest and missing chunks to the successors synchronously at the
// 2PC commit barrier (dlfm installs the shardReplicator via SetReplicator);
// acks gate on a write quorum, each replica gets retry/timeout/backoff
// through internal/retry, and a lagging replica catches up over
// archive.ExportDelta/ImportDelta — O(changed chunks), never a full copy
// unless the histories diverged. Link and unlink ride the same stream.
//
// On member death, Failover promotes the first live successor of every
// orphaned path: the successor already holds the full history and the
// promotion identity, so the path serves again after a gate + materialize —
// no AbsorbDead, no cold start, no data movement. The ring swaps to the
// survivor set and FlushReplication (the anti-entropy pass) repairs
// redundancy against the new successor lists.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"datalinks/internal/archive"
	"datalinks/internal/dlfm"
	"datalinks/internal/extent"
	"datalinks/internal/metrics"
	"datalinks/internal/obs"
	"datalinks/internal/retry"
	"datalinks/internal/upcall"
)

// errMemberDown marks a ship attempt that could not reach its replica
// because the member is not routable — transient during a failover window.
var errMemberDown = errors.New("core: replica member down")

// replConfig is the cluster's resolved replication policy.
type replConfig struct {
	n      int          // total copies per path, owner included (<=1: off)
	quorum int          // acks (owner included) required per commit
	policy retry.Policy // per-replica ship retry
	chaos  *upcall.Chaos
	auto   bool          // run Failover automatically when the probe sees a death
	probe  time.Duration // health-probe interval (0: no probe)
}

// shardReplicator is the dlfm.Replicator one member's commit path calls. It
// is bound to its owner id; everything else resolves through the cluster at
// ship time, so ring swaps and failovers need no rewiring.
type shardReplicator struct {
	c     *Cluster
	owner string
}

var _ dlfm.Replicator = (*shardReplicator)(nil)

func (sr *shardReplicator) ShipCommit(ctx context.Context, path string, ver int64, stateID uint64, snap *extent.Snapshot, size int64, mtime time.Time, meta dlfm.ReplicaMeta) error {
	return sr.c.shipVersion(ctx, sr.owner, path, ver, stateID, snap, mtime, meta)
}

func (sr *shardReplicator) ShipUnlink(path string) error {
	return sr.c.shipUnlink(sr.owner, path)
}

// replicaTargets returns the members that should hold replicas of path for
// the given owner: the path's ring successors, owner excluded, at most n-1.
func (c *Cluster) replicaTargets(owner, path string) []string {
	if c.repl.n <= 1 {
		return nil
	}
	succ := c.router.successorsFor(path, c.repl.n+1)
	out := make([]string, 0, c.repl.n-1)
	for _, id := range succ {
		if id == owner {
			continue
		}
		out = append(out, id)
		if len(out) == c.repl.n-1 {
			break
		}
	}
	return out
}

// memberRegistry returns a live member's metrics registry, or nil.
func (c *Cluster) memberRegistry(id string) *metrics.Registry {
	m, err := c.router.member(id)
	if err != nil {
		return nil
	}
	return m.DLFM.Metrics()
}

// shipVersion pushes one committed version to the path's replica set and
// gates on the write quorum. Called synchronously from the owner's commit
// path (and from link, with the initial version), so a nil return means a
// quorum of copies carries the version before the application's close
// returns.
func (c *Cluster) shipVersion(ctx context.Context, owner, path string, ver int64, stateID uint64, snap *extent.Snapshot, mtime time.Time, meta dlfm.ReplicaMeta) error {
	cfg := c.repl
	targets := c.replicaTargets(owner, path)
	if len(targets) == 0 && cfg.quorum <= 1 {
		return nil
	}
	start := time.Now()
	reg := c.memberRegistry(owner)
	parent := obs.SpanFrom(ctx)
	acks := 1 // the owner's own durable copy
	retried := false
	var firstErr error
	for _, id := range targets {
		sp := parent.Child("repl.ship")
		sp.SetAttr("replica", id)
		sp.SetAttr("version", ver)
		again, err := c.shipToReplica(ctx, owner, id, path, ver, stateID, snap, mtime, meta)
		retried = retried || again
		if err != nil {
			sp.SetAttr("error", err.Error())
			if firstErr == nil {
				firstErr = fmt.Errorf("replica %s: %w", id, err)
			}
		} else {
			acks++
			ack := sp.Child("repl.ack")
			ack.SetAttr("replica", id)
			ack.End()
		}
		sp.End()
	}
	if reg != nil {
		reg.Counter("repl.ship_ms").Add(time.Since(start).Milliseconds())
		reg.Histogram("repl.ship").Observe(time.Since(start))
		if retried {
			reg.Counter("repl.quorum_waits").Inc()
		}
	}
	if acks < cfg.quorum {
		err := firstErr
		if err == nil {
			err = errMemberDown
		}
		return fmt.Errorf("core: quorum %d/%d for %s v%d: %w", acks, cfg.quorum, path, ver, err)
	}
	return nil
}

// shipToReplica delivers one frame to one replica: a lagging replica is
// caught up through the archive delta path before the frame is re-applied.
func (c *Cluster) shipToReplica(ctx context.Context, owner, id, path string, ver int64, stateID uint64, snap *extent.Snapshot, mtime time.Time, meta dlfm.ReplicaMeta) (retried bool, err error) {
	return c.sendToReplica(ctx, id, func(dst *FileServer) error {
		src, err := c.router.member(owner)
		if err != nil {
			return fmt.Errorf("%w: %v", errMemberDown, err)
		}
		err = dst.DLFM.ApplyReplicaCommit(path, ver, stateID, snap, mtime, meta)
		if errors.Is(err, dlfm.ErrReplicaLag) {
			if cerr := c.catchUpReplica(src, dst, path); cerr != nil {
				return cerr
			}
			err = dst.DLFM.ApplyReplicaCommit(path, ver, stateID, snap, mtime, meta)
		}
		return err
	})
}

// sendToReplica runs one delivery to member id under the ship retry policy.
// The chaos hook strikes each attempt (a dropped or reset frame surfaces as
// the same ErrConnLost class the upcall wire produces) and the member is
// looked up per attempt, so a ring swap mid-retry is seen. Every failure is
// re-attempted — transport faults and a member mid-failover obviously, the
// rest because the attempts are bounded and a replica that just restarted may
// accept. retried reports whether any attempt was repeated.
func (c *Cluster) sendToReplica(ctx context.Context, id string, deliver func(dst *FileServer) error) (retried bool, err error) {
	p := c.repl.policy
	prevOnRetry := p.OnRetry
	p.OnRetry = func(attempt int, err error, delay time.Duration) {
		retried = true
		if prevOnRetry != nil {
			prevOnRetry(attempt, err, delay)
		}
	}
	err = retry.Do(ctx, p, func(error) retry.Class { return retry.Retryable }, func(context.Context) error {
		if ch := c.repl.chaos; ch != nil {
			if err := ch.Strike(); err != nil {
				return err
			}
		}
		dst, err := c.router.member(id)
		if err != nil {
			return fmt.Errorf("%w: %v", errMemberDown, err)
		}
		return deliver(dst)
	})
	return retried, err
}

// shipUnlink propagates an unlink to the replica set so a later failover
// cannot resurrect the path. Same quorum policy as commits.
func (c *Cluster) shipUnlink(owner, path string) error {
	cfg := c.repl
	targets := c.replicaTargets(owner, path)
	if len(targets) == 0 && cfg.quorum <= 1 {
		return nil
	}
	acks := 1
	var firstErr error
	for _, id := range targets {
		_, err := c.sendToReplica(context.Background(), id, func(dst *FileServer) error {
			return dst.DLFM.ApplyReplicaUnlink(path)
		})
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("replica %s: %w", id, err)
			}
		} else {
			acks++
		}
	}
	if acks < cfg.quorum {
		return fmt.Errorf("core: unlink quorum %d/%d for %s: %w", acks, cfg.quorum, path, firstErr)
	}
	return nil
}

// catchUpReplica is the one way a path's archive history moves between
// members — ship-lag catch-up, anti-entropy, live rebalance and AbsorbDead all
// end here. It exports from src what follows the newest version dst holds and
// imports it: O(changed chunks) when the histories share a prefix, nothing at
// all when dst is already level (a move onto the replica holder), the whole
// history when dst holds none. A chain gap — the histories diverged across a
// restore or truncate, or dst ran ahead of a restored owner — drops dst's copy
// and starts over. The repl.lag_versions counter on the source records how
// many versions had to travel outside the synchronous ship.
func (c *Cluster) catchUpReplica(src, dst *FileServer, path string) error {
	have := int64(-1)
	if v, ok := dst.Archive.Newest(c.authority, path); ok {
		have = int64(v)
	}
	recs, err := src.Archive.ExportDelta(c.authority, path, have)
	if errors.Is(err, archive.ErrChainGap) {
		if err := dst.Archive.Drop(c.authority, path); err != nil {
			return err
		}
		recs, err = src.Archive.ExportDelta(c.authority, path, -1)
	}
	if err != nil || len(recs) == 0 {
		return err
	}
	src.DLFM.Metrics().Counter("repl.lag_versions").Add(int64(len(recs)))
	_, err = dst.Archive.ImportDelta(c.authority, path, recs, src.Archive.FetchBlob)
	if errors.Is(err, archive.ErrStale) {
		// Another shipper landed the history first — that is the goal.
		return nil
	}
	return err
}

// ReplicaSet reports the members that should hold copies of path: the
// current owner first, then its ring successors in promotion order.
func (c *Cluster) ReplicaSet(path string) []string {
	owner := c.router.placementID(path)
	return append([]string{owner}, c.replicaTargets(owner, path)...)
}

// FailoverReport describes what one Failover did.
type FailoverReport struct {
	Promoted []string      // paths promoted onto survivors
	Elapsed  time.Duration // gate-to-serving wall time
}

// Failover recovers a failed member's paths from their replicas: every
// orphaned path is promoted on its first live ring successor — which, by the
// successor-list property, is exactly the member the ring without the dead
// node assigns it to — then the ring swaps and the anti-entropy pass repairs
// redundancy. No AbsorbDead, no cold start from the dead member's disks: the
// survivors already hold everything. Requires Replicas > 1 and a member that
// FailServer (or the health probe) marked dead.
func (c *Cluster) Failover(id string) (*FailoverReport, error) {
	if c.repl.n <= 1 {
		return nil, fmt.Errorf("core: failover of %q needs Replicas > 1", id)
	}
	c.mu.Lock()
	_, dead := c.deadCfg[id]
	c.mu.Unlock()
	if !dead {
		return nil, fmt.Errorf("core: member %q has not failed", id)
	}
	c.router.rebalanceMu.Lock()
	defer c.router.rebalanceMu.Unlock()
	start := time.Now()
	cur := c.router.currentRing()
	if !cur.Has(id) {
		return nil, fmt.Errorf("core: member %q is not on the ring", id)
	}
	target := cur.Without(id)
	if len(target.Members()) == 0 {
		return nil, fmt.Errorf("core: no surviving members to fail %q over to", id)
	}
	rep := &FailoverReport{}
	promoted := make(map[string]bool)
	// Pass 1: each survivor promotes the orphaned paths the survivor ring
	// assigns to it — the designated first live successor.
	for _, sid := range c.router.memberIDs() {
		m, err := c.router.member(sid)
		if err != nil {
			continue
		}
		for _, p := range m.DLFM.ReplicaPaths() {
			if c.router.placementID(p) != id || target.Lookup(p) != sid {
				continue
			}
			if err := c.promotePath(m, p, id); err != nil {
				return rep, fmt.Errorf("core: failover %s: promote %s on %s: %w", id, p, sid, err)
			}
			promoted[p] = true
			rep.Promoted = append(rep.Promoted, p)
		}
	}
	// Pass 2: orphaned paths whose designated successor holds no replica
	// (it joined after the last ship, or lagged) promote wherever one
	// survives — the override keeps routing correct after the ring swap.
	for _, sid := range c.router.memberIDs() {
		m, err := c.router.member(sid)
		if err != nil {
			continue
		}
		for _, p := range m.DLFM.ReplicaPaths() {
			if promoted[p] || c.router.placementID(p) != id {
				continue
			}
			if err := c.promotePath(m, p, id); err != nil {
				return rep, fmt.Errorf("core: failover %s: promote %s on %s: %w", id, p, sid, err)
			}
			promoted[p] = true
			rep.Promoted = append(rep.Promoted, p)
		}
	}
	c.router.adoptRing(target)
	c.mu.Lock()
	delete(c.deadCfg, id) // failover supersedes AbsorbDead
	c.mu.Unlock()
	c.router.reg.Counter("repl.failovers").Inc()
	rep.Elapsed = time.Since(start)
	// Redundancy repair off the critical path measurement: the new ring
	// implies new successor sets for every promoted (and surviving) path.
	if err := c.FlushReplication(); err != nil {
		return rep, err
	}
	c.Placements()
	return rep, nil
}

// promotePath gates a path the dead member owned, promotes the local replica,
// and points the router at the new owner.
func (c *Cluster) promotePath(m *FileServer, path, dead string) error {
	if c.migrateHook != nil {
		if err := c.migrateHook(path, dead, m.Name); err != nil {
			return err
		}
	}
	gate := c.router.gate(path)
	defer c.router.ungate(path, gate)
	if err := m.DLFM.PromoteReplica(path); err != nil {
		return err
	}
	c.router.setOverride(path, m.Name)
	return nil
}

// FlushReplication is the anti-entropy pass: every owner pushes each linked
// path's history to its current ring successors until the replicas match,
// and every member drops replicas it should no longer hold. This is also the
// quiesce barrier E23 relies on — a quorum-failed commit leaves replica gaps
// that no later ship heals on its own, and a ring swap strands replicas on
// retired successors.
func (c *Cluster) FlushReplication() error {
	if c.repl.n <= 1 {
		return nil
	}
	var firstErr error
	// Push: owners repair their successor sets.
	for _, sid := range c.router.memberIDs() {
		m, err := c.router.member(sid)
		if err != nil {
			continue
		}
		for _, p := range m.DLFM.LinkedPaths() {
			if c.router.placementID(p) != sid {
				continue
			}
			srcLast, ok := m.Archive.Newest(c.authority, p)
			if !ok {
				continue // mode without archive history: nothing to replicate
			}
			meta, _, mtime, err := m.DLFM.FileMeta(p)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			for _, tid := range c.replicaTargets(sid, p) {
				dst, err := c.router.member(tid)
				if err != nil {
					continue
				}
				// History first (nothing moves when dst is level), then the row.
				err = c.catchUpReplica(m, dst, p)
				if err == nil {
					err = dst.DLFM.EnsureReplicaRow(p, int64(srcLast), mtime, meta)
				}
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("core: flush %s %s→%s: %w", p, sid, tid, err)
				}
			}
		}
	}
	// Prune: a replica stays only while its owner is reachable, still links
	// the path, and still lists this member as a successor. An unreachable
	// owner freezes pruning — a failover may be about to need the replica.
	for _, sid := range c.router.memberIDs() {
		m, err := c.router.member(sid)
		if err != nil {
			continue
		}
		for _, p := range m.DLFM.ReplicaPaths() {
			ownerID := c.router.placementID(p)
			keep := false
			if om, err := c.router.member(ownerID); err != nil {
				keep = true
			} else if ownerID != sid && om.DLFM.IsLinked(p) {
				for _, tid := range c.replicaTargets(ownerID, p) {
					if tid == sid {
						keep = true
						break
					}
				}
			}
			if !keep {
				if err := m.DLFM.DropReplica(p); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
	}
	return firstErr
}
