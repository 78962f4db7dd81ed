package core

// Shard replication and failover: with ClusterConfig.Replicas = N > 1 every
// linked path has N copies — the ring owner plus its N-1 distinct ring
// successors (ring.SuccessorsFor). A ship is a catch-up: once the owner's
// close has archived a version, each successor imports the owner's archive
// records after the newest version it holds (dlfm.ImportReplica over
// archive.ExportDelta/ImportDelta) and fetches only the blobs it lacks — one
// record for a level replica, the tail for a lagging one, the whole history
// for one whose history diverged. Acks gate on a write quorum synchronously
// at the commit barrier (dlfm installs the shardReplicator via
// SetReplicator), and each replica gets retry/timeout/backoff through
// internal/retry. Link and unlink ride the same stream.
//
// On member death, Failover promotes the first live successor of every
// orphaned path: the successor already holds the full history and the
// promotion identity, so the path serves again after a gate and a deferred
// install — no cold start, no byte read until first access (a live move ends
// in the same promote). The ring swaps to the survivor set and FlushReplication
// (anti-entropy) repairs redundancy against the new lists.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"datalinks/internal/dlfm"
	"datalinks/internal/metrics"
	"datalinks/internal/obs"
	"datalinks/internal/retry"
	"datalinks/internal/upcall"
)

// ErrMemberDown marks a member that is not routable or not alive. An open,
// link or restore that needs it fails with it; a ship to it retries, as it is
// transient during a failover window.
var ErrMemberDown = errors.New("core: member down")

// replConfig is the cluster's resolved replication policy.
type replConfig struct {
	n      int          // total copies per path, owner included (<=1: off)
	quorum int          // acks (owner included) required per commit
	policy retry.Policy // per-replica ship retry
	chaos  *upcall.Chaos
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

func (sr *shardReplicator) ShipCommit(ctx context.Context, path string, ver int64, mtime time.Time, meta dlfm.ReplicaMeta) error {
	return sr.c.ship(ctx, sr.owner, path, ver, func(src, dst *FileServer) error {
		return sr.c.catchUpReplica(src, dst, path, ver, mtime, meta, true)
	})
}

// ShipUnlink propagates an unlink to the replica set so a later failover
// cannot resurrect the path.
func (sr *shardReplicator) ShipUnlink(path string) error {
	return sr.c.ship(context.Background(), sr.owner, path, -1, func(_, dst *FileServer) error {
		return dst.DLFM.ApplyReplicaUnlink(path)
	})
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

// ship runs deliver(owner, replica) on each of the path's replica targets and
// gates on the write quorum. Called synchronously from the owner's commit path with the version it
// archived (and from link, with the initial version, and from unlink, with
// -1), so a nil return means a quorum of copies holds the version, or has
// dropped the path, before the application's call returns. Each delivery is a
// repl.ship span under ctx's, with a repl.ack child once acked.
func (c *Cluster) ship(ctx context.Context, owner, path string, ver int64, deliver func(src, dst *FileServer) error) error {
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
		sp.SetString("replica", id)
		sp.SetInt("version", ver)
		again, err := c.sendToReplica(ctx, id, func(dst *FileServer) error {
			src, err := c.router.member(owner)
			if err != nil {
				return fmt.Errorf("%w: %v", ErrMemberDown, err)
			}
			return deliver(src, dst)
		})
		retried = retried || again
		if err != nil {
			sp.SetString("error", err.Error())
			if firstErr == nil {
				firstErr = fmt.Errorf("replica %s: %w", id, err)
			}
		} else {
			acks++
			ack := sp.Child("repl.ack")
			ack.SetString("replica", id)
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
			err = ErrMemberDown
		}
		return fmt.Errorf("core: quorum %d/%d for %s v%d: %w", acks, cfg.quorum, path, ver, err)
	}
	return nil
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
			return fmt.Errorf("%w: %v", ErrMemberDown, err)
		}
		return deliver(dst)
	})
	return retried, err
}

// catchUpReplica is the one way versions move between members — a commit's
// ship, anti-entropy and a live move (AbsorbDead's drain included) all end
// here: dst imports from src's archive what follows the newest version it
// holds and acks ver only once it holds ver as src does (dlfm.ImportReplica).
// repl.lag_versions on the source counts the versions that travelled beyond
// the one a ship carries.
func (c *Cluster) catchUpReplica(src, dst *FileServer, path string, ver int64, mtime time.Time, meta dlfm.ReplicaMeta, ship bool) error {
	n, err := dst.DLFM.ImportReplica(path, src.Archive, ver, mtime, meta)
	if ship && n > 0 {
		n--
	}
	src.DLFM.Metrics().Counter("repl.lag_versions").Add(int64(n))
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
// node assigns it to — or, when that member holds no replica (it joined after
// the last ship, or lagged), on the first survivor that does, where its
// override keeps routing correct after the ring swap. Then the ring swaps and
// the anti-entropy pass repairs redundancy. No cold start from the dead
// member's disks: the survivors already hold everything. Requires Replicas > 1
// and a member that FailServer (or the health probe) marked dead and that no
// restart brought back.
func (c *Cluster) Failover(id string) (*FailoverReport, error) {
	if c.repl.n <= 1 {
		return nil, fmt.Errorf("core: failover of %q needs Replicas > 1", id)
	}
	c.router.rebalanceMu.Lock()
	defer c.router.rebalanceMu.Unlock()
	c.mu.Lock()
	_, dead := c.deadCfg[id]
	c.mu.Unlock()
	if !dead {
		return nil, fmt.Errorf("core: member %q has not failed", id)
	}
	start := time.Now()
	cur := c.router.currentRing()
	if !cur.Has(id) {
		return nil, fmt.Errorf("core: member %q is not on the ring", id)
	}
	target := cur.Without(id)
	if len(target.Members()) == 0 {
		return nil, fmt.Errorf("core: no surviving members to fail %q over to", id)
	}
	// Each orphaned path's surviving replica holders, in member order.
	var orphans []string
	holders := make(map[string][]*FileServer)
	for _, sid := range c.router.memberIDs() {
		m, err := c.router.member(sid)
		if err != nil {
			continue
		}
		for _, p := range m.DLFM.ReplicaPaths() {
			if c.router.placementID(p) != id {
				continue
			}
			if holders[p] == nil {
				orphans = append(orphans, p)
			}
			holders[p] = append(holders[p], m)
		}
	}
	rep := &FailoverReport{}
	for _, p := range orphans {
		m := holders[p][0]
		for _, h := range holders[p] {
			if h.Name == target.Lookup(p) {
				m = h
				break
			}
		}
		if err := c.promotePath(m, p, id); err != nil {
			return rep, fmt.Errorf("core: failover %s: promote %s on %s: %w", id, p, m.Name, err)
		}
		rep.Promoted = append(rep.Promoted, p)
	}
	c.router.adoptRing(target)
	c.mu.Lock()
	delete(c.deadCfg, id) // the member's paths live on the survivors now
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
	// Failover promotions only; a live move counts in ring.moves.
	m.DLFM.Metrics().Counter("dlfm.repl.promotions").Inc()
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
			srcLast, ok := m.Archive.Newest(clusterAuthority, p)
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
				// A partition cuts anti-entropy as it cuts a ship. Nothing
				// moves when dst is level.
				err = c.repl.chaos.Strike()
				if err == nil {
					err = c.catchUpReplica(m, dst, p, int64(srcLast.Version), mtime, meta, false)
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
