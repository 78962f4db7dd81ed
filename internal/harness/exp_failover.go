package harness

import (
	"flag"
	"fmt"
	"time"

	"datalinks/internal/core"
)

// failoverConfig is E23's knobs. A Servers-member cluster runs with two
// copies of every path and a write quorum of 2; Writers sessions soak in-place
// update commits for Round, one member is killed silently (no FailServer
// bookkeeping — the health probe has to notice) a third of the way in, and
// the run fails if a victim path serves less than its last acknowledged
// commit right after its failover, any acked commit is lost, any orphaned
// path stays dark longer than Budget, or any replica's post-quiesce history
// digest diverges from its owner's.
type failoverConfig struct {
	Servers int
	Files   int
	Writers int
	Round   time.Duration
	// Budget is the declared ceiling on per-path unavailability: the gap
	// between the kill and the path's first post-kill acked commit.
	Budget time.Duration
	Probe  time.Duration
}

var e23 = failoverConfig{
	Servers: 3,
	Files:   48,
	Writers: 16,
	Round:   2 * time.Second,
	Budget:  2 * time.Second,
	Probe:   25 * time.Millisecond,
}

func (c *failoverConfig) flags(fs *flag.FlagSet) {
	posInt(fs, &c.Writers, "e23-writers", "E23: concurrent writer sessions")
	posDuration(fs, &c.Round, "e23-round", "E23: soak duration (e.g. 2s)")
	posDuration(fs, &c.Budget, "e23-budget", "E23: declared failover budget — max per-path unavailability after the kill")
}

func init() {
	Register(Experiment{
		ID:    "E23",
		Title: "Replicated shards: ring successor replication and automatic failover",
		Paper: "The paper's recovery story rebuilds a failed DLFM from its durable planes — correct, but a cold start: the namespace is dark until the repository WAL replays and the archive rematerializes. This experiment measures the replication extension: every committed version ships synchronously to the path's ring successors at the 2PC commit barrier, so when a member machine dies mid-soak the probe promotes the successors' replicas in place — no cold start, no data movement — and the soak must show zero lost acked commits, unavailability inside the declared failover budget, and byte-identical owner/replica histories after quiesce.",
		Run:   e23.run,
		Flags: e23.flags,
	})
}

// run soaks committed updates while a member machine dies mid-round and
// proves the three replication invariants.
func (c *failoverConfig) run() ([]*Table, error) {
	members := make([]core.ServerConfig, c.Servers)
	for i := range members {
		members[i] = core.ServerConfig{Name: fmt.Sprintf("fs%d", i+1), OpenWait: 10 * time.Second}
	}
	cl, s, err := clusterSoak(core.ClusterConfig{
		Members:       members,
		LockTimeout:   10 * time.Second,
		Replicas:      2,
		WriteQuorum:   2,
		ProbeInterval: c.Probe,
	}, "fo", "doc DATALINK MODE RDD RECOVERY YES", c.Files, "/r/f%d.bin")
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	// The soak: writers commit across all paths, round robin. Unlike the
	// scale-out round, writer errors are TOLERATED: the outage window
	// legitimately rejects commits against orphaned paths (and quorum-fails
	// commits whose successor died) until the failover lands. The invariant
	// is not "every op succeeds" but "every op that was ACKED survives".
	// The kill: a third into the round, the member owning paths[0] dies
	// silently — no FailServer bookkeeping, the probe must notice. Its paths
	// hold still from the kill until each has been read once on its new
	// owner, so no commit after the kill can hide a version the failover
	// lost.
	var victim string
	victimPaths := make(map[string]bool)
	var check failoverCheck
	res, _ := s.write(writeRound{
		writers:    min(c.Writers, len(s.paths)),
		stop:       stopAfter(c.Round),
		eventAfter: c.Round / 3,
		event: func(lock pathLocker) error {
			id, err := cl.Owner(s.paths[0])
			if err != nil {
				return err
			}
			var idx []int
			for i, p := range s.paths {
				if owner, err := cl.Owner(p); err == nil && owner == id {
					victimPaths[p] = true
					idx = append(idx, i)
				}
			}
			victim = id
			acked, unlock := lock(idx)
			defer unlock()
			if err := cl.KillServer(id); err != nil {
				return err
			}
			check = c.checkFailedOver(cl, s, id, idx, acked)
			return nil
		},
	})
	if res.eventErr != nil {
		return nil, fmt.Errorf("E23 soak: kill: %w", res.eventErr)
	}
	if victim == "" {
		return nil, fmt.Errorf("E23: the kill never ran")
	}

	// Unavailability: per victim-owned path, the gap between the kill and the
	// first acked commit after it.
	var maxDark time.Duration
	neverBack := 0
	for i, p := range s.paths {
		if !victimPaths[p] {
			continue
		}
		if res.firstAck[i].IsZero() {
			neverBack++
			continue
		}
		if dark := res.firstAck[i].Sub(res.eventAt); dark > maxDark {
			maxDark = dark
		}
	}

	// Quiesce: run the anti-entropy pass — a commit that quorum-failed during
	// the outage left a replica gap no later ship heals, and the ring swap
	// stranded replicas on retired successor sets. Then every replica's
	// history must hold its owner's bytes.
	lost, err := lostAcked(s.read, s.paths, res.acked, false)
	if err != nil {
		return nil, err
	}
	if err := cl.FlushReplication(); err != nil {
		return nil, fmt.Errorf("E23 quiesce flush: %w", err)
	}
	var pairs [][2]heldCopy
	for _, p := range s.paths {
		set := cl.ReplicaSet(p)
		owner := heldBy(cl, "owner "+set[0], set[0], p)
		for _, id := range set[1:] {
			pairs = append(pairs, [2]heldCopy{heldBy(cl, "replica "+id, id, p), owner})
		}
	}
	diverged, firstDiverged := sameHistories(pairs)

	failovers := cl.Router().Metrics().Counter("repl.failovers").Value()
	var promotions, quorumFails int64
	for _, id := range cl.Members() {
		if m, err := cl.Member(id); err == nil {
			promotions += m.DLFM.Metrics().Counter("dlfm.repl.promotions").Value()
			quorumFails += m.DLFM.Metrics().Counter("dlfm.repl.quorum_failures").Value()
		}
	}

	tbl := &Table{
		Caption: "E23. Mid-soak member kill with ring-successor replication (Replicas=2, quorum=2)",
		Headers: []string{"writers", "round", "acked commits", "rejected (outage)", "victim paths", "promoted", "failovers", "max dark", "budget", "lost at failover", "lost acked", "digest mismatches"},
	}
	tbl.AddRow(
		fmt.Sprintf("%d", c.Writers),
		Dur(c.Round),
		fmt.Sprintf("%d", res.commits),
		fmt.Sprintf("%d", res.failed),
		fmt.Sprintf("%d on %s", len(victimPaths), victim),
		fmt.Sprintf("%d", promotions),
		fmt.Sprintf("%d", failovers),
		Dur(maxDark),
		Dur(c.Budget),
		fmt.Sprintf("%d of %d", check.lost, check.read),
		fmt.Sprintf("%d", lost),
		fmt.Sprintf("%d", diverged),
	)
	tbl.Note("the kill is silent (no FailServer bookkeeping): the %v health probe detects the dead member and promotes each orphaned path's replica on its ring successor in place — no AbsorbDead, no cold start, no archive transfer; %d closes were rejected during the outage window and every one of them is accounted for (an acked close is never among them)", c.Probe, res.failed)
	tbl.Note("quiesce = FlushReplication (anti-entropy; a close archives before it returns, so there is no archive work to wait for), then every path's history — (version, size, sha256) of each version — is compared owner vs every replica, and a mismatch prints both copies with their state ids; quorum-failed closes during the outage: %d", quorumFails)

	tbl.Note("lost at failover: each victim path is read once on its new owner, before any commit after the kill can land on it, and must serve its last acknowledged sequence from before the kill or a later one")
	if check.lost > 0 {
		return []*Table{tbl}, fmt.Errorf("E23 FAILED: %d victim path(s) served less than their last acknowledged commit after the failover; first: %s", check.lost, check.first)
	}
	if lost > 0 {
		return []*Table{tbl}, fmt.Errorf("E23 FAILED: %d acked commit(s) lost across the kill", lost)
	}
	if diverged > 0 {
		return []*Table{tbl}, fmt.Errorf("E23 FAILED: %d replica history digest(s) diverge from their owner after quiesce; first: %s", diverged, firstDiverged)
	}
	if neverBack > 0 {
		return []*Table{tbl}, timingGate(tbl, "E23", "%d victim path(s) never served a commit again after the kill", neverBack)
	}
	if maxDark > c.Budget {
		return []*Table{tbl}, timingGate(tbl, "E23", "a path stayed dark %v after the kill (budget %v)", maxDark, c.Budget)
	}
	return []*Table{tbl}, nil
}

// failoverCheck is what checkFailedOver found: of the victim paths it read,
// how many lost an acknowledged version, and the first of them.
type failoverCheck struct {
	read, lost int
	first      string
}

// checkFailedOver reads the victim paths idx of s — whose last
// acknowledged sequences before the kill of dead are acked — each once it
// is served again, waiting up to the budget; a path still dark then is the
// darkness gate's.
func (c *failoverConfig) checkFailedOver(cl *core.Cluster, s *soak, dead string, idx []int, acked []int64) failoverCheck {
	var ch failoverCheck
	deadline := time.Now().Add(c.Budget)
	for k, i := range idx {
		p := s.paths[i]
		for {
			if id, err := cl.Owner(p); err == nil && id != dead {
				break
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(c.Probe / 5)
		}
		if id, err := cl.Owner(p); err != nil || id == dead {
			continue
		}
		ch.read++
		content, err := s.read(p)
		seq := payloadSeq(content)
		if err == nil && seq >= acked[k] {
			continue
		}
		ch.lost++
		if ch.first == "" {
			ch.first = fmt.Sprintf("%s: acked %d before the kill, serves %d (%v)", p, acked[k], seq, err)
		}
	}
	return ch
}
