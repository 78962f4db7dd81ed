package harness

import (
	"flag"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"datalinks/internal/core"
)

// failoverConfig is E23's knobs. A Servers-member cluster runs with two
// copies of every path and a write quorum of 2; Writers sessions soak in-place
// update commits for Round, one member is killed silently (no FailServer
// bookkeeping — the health probe has to notice) a third of the way in, and
// the run fails if any acked commit is lost, any orphaned path stays dark
// longer than Budget, or any replica's post-quiesce history digest diverges
// from its owner's.
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

// setup builds the replicated cluster and links Files rdd files.
func (c *failoverConfig) setup() (*core.Cluster, []string, error) {
	members := make([]core.ServerConfig, c.Servers)
	for i := range members {
		members[i] = core.ServerConfig{
			Name:     fmt.Sprintf("fs%d", i+1),
			OpenWait: 10 * time.Second,
		}
	}
	cl, err := core.NewCluster(core.ClusterConfig{
		Members:       members,
		LockTimeout:   10 * time.Second,
		Replicas:      2,
		WriteQuorum:   2,
		ProbeInterval: c.Probe,
	})
	if err != nil {
		return nil, nil, err
	}
	cl.DB().MustExec(`CREATE TABLE fo (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES)`)
	paths := make([]string, c.Files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/r/f%d.bin", i)
		if err := seedAndLinkCluster(cl, "fo", i, paths[i], scaleoutContent(paths[i], 0)); err != nil {
			cl.Close()
			return nil, nil, err
		}
	}
	return cl, paths, nil
}

// e23Result aggregates the soak.
type e23Result struct {
	commits     int64 // acked closes
	failed      int64 // closes rejected during the outage window (tolerated)
	acked       []int64
	firstOKAt   []time.Time // per path, first acked commit after the kill
	killedAt    time.Time
	killed      atomic.Bool // set once killedAt is; what the writers poll
	victim      string
	victimPaths map[string]bool
}

// traffic soaks commits across all paths and kills the victim mid-round.
// Unlike the scale-out round, writer errors are TOLERATED: the outage window
// legitimately rejects commits against orphaned paths (and quorum-fails
// commits whose successor died) until the failover lands. The invariant is
// not "every op succeeds" but "every op that was ACKED survives".
func (c *failoverConfig) traffic(cl *core.Cluster, paths []string) (*e23Result, error) {
	res := &e23Result{
		acked:       make([]int64, len(paths)),
		firstOKAt:   make([]time.Time, len(paths)),
		victimPaths: make(map[string]bool),
	}
	writers := min(c.Writers, len(paths))
	pathMu := make([]sync.Mutex, len(paths))
	var commits, failed atomic.Int64
	stopped := stopAfter(c.Round)

	// The kill: a third into the round, the member owning paths[0] dies
	// silently — no FailServer bookkeeping, the probe must notice.
	var killErr error
	var killWG sync.WaitGroup
	killWG.Add(1)
	go func() {
		defer killWG.Done()
		time.Sleep(c.Round / 3)
		victim, err := cl.Owner(paths[0])
		if err != nil {
			killErr = err
			return
		}
		for _, p := range paths {
			if owner, err := cl.Owner(p); err == nil && owner == victim {
				res.victimPaths[p] = true
			}
		}
		res.victim = victim
		res.killedAt = time.Now()
		res.killed.Store(true)
		killErr = cl.KillServer(victim)
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := cl.NewSession(expUID)
			for !stopped() {
				for i := w; i < len(paths) && !stopped(); i += writers {
					pathMu[i].Lock()
					seq := res.acked[i] + 1
					err := commitEdit(cl.DB(), sess.OpenWrite, "fo", i, 0, scaleoutContent(paths[i], seq))
					if err == nil {
						res.acked[i] = seq
						if res.killed.Load() && res.firstOKAt[i].IsZero() {
							res.firstOKAt[i] = time.Now()
						}
					}
					pathMu[i].Unlock()
					if err != nil {
						failed.Add(1)
					} else {
						commits.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	killWG.Wait()
	if killErr != nil {
		return nil, fmt.Errorf("kill: %w", killErr)
	}
	res.commits = commits.Load()
	res.failed = failed.Load()
	return res, nil
}

// e23Lost counts paths whose final bytes encode a sequence BELOW the last
// acked one. Above is legal: a close rejected for replication quorum still
// committed on the owner ("newer than the ack" is the at-least-once rule);
// below means an acknowledged commit evaporated.
func e23Lost(cl *core.Cluster, paths []string, acked []int64) (int, error) {
	seqs, err := committedSeqs(cl, paths)
	lost := 0
	for i, seq := range seqs {
		if seq < acked[i] {
			lost++
		}
	}
	return lost, err
}

// e23ReplicaDigests compares every path's history on its owner against every
// replica in its successor set. It returns how many replicas diverge and what
// the first divergence is: two histories whose bytes differ, with both
// copies' per-version dump, or a history one side cannot materialize (a
// missing blob is never summed as an empty version), with the member, path,
// version and error.
func e23ReplicaDigests(cl *core.Cluster, paths []string) (diverged int, first string) {
	digest := func(id, path string) (history, error) {
		m, err := cl.Member(id)
		if err != nil {
			return nil, err
		}
		return historyDigest(m, cl.Authority(), path)
	}
	for _, p := range paths {
		set := cl.ReplicaSet(p)
		ownerDigest, ownerErr := digest(set[0], p)
		for _, id := range set[1:] {
			d, err := digest(id, p)
			if ownerErr == nil && err == nil && d.sameBytes(ownerDigest) {
				continue
			}
			diverged++
			if first != "" {
				continue
			}
			switch {
			case ownerErr != nil:
				first = "owner " + ownerErr.Error()
			case err != nil:
				first = "replica " + err.Error()
			default:
				first = fmt.Sprintf("%s: replica %s and owner %s hold different bytes", p, id, set[0]) +
					dump("replica "+id, d, "owner "+set[0], ownerDigest)
			}
		}
	}
	return diverged, first
}

// run soaks committed updates while a member machine dies mid-round and
// proves the three replication invariants.
func (c *failoverConfig) run() ([]*Table, error) {
	cl, paths, err := c.setup()
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	res, err := c.traffic(cl, paths)
	if err != nil {
		return nil, fmt.Errorf("E23 soak: %w", err)
	}
	if res.victim == "" {
		return nil, fmt.Errorf("E23: the kill never ran")
	}

	// Unavailability: per victim-owned path, the gap between the kill and the
	// first acked commit after it.
	var maxDark time.Duration
	neverBack := 0
	for i, p := range paths {
		if !res.victimPaths[p] {
			continue
		}
		if res.firstOKAt[i].IsZero() {
			neverBack++
			continue
		}
		if dark := res.firstOKAt[i].Sub(res.killedAt); dark > maxDark {
			maxDark = dark
		}
	}

	// Quiesce: drain archiving, then run the anti-entropy pass — a commit
	// that quorum-failed during the outage left a replica gap no later ship
	// heals, and the ring swap stranded replicas on retired successor sets.
	lost, err := e23Lost(cl, paths, res.acked)
	if err != nil {
		return nil, err
	}
	if err := cl.FlushReplication(); err != nil {
		return nil, fmt.Errorf("E23 quiesce flush: %w", err)
	}
	diverged, firstDiverged := e23ReplicaDigests(cl, paths)

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
		Headers: []string{"writers", "round", "acked commits", "rejected (outage)", "victim paths", "promoted", "failovers", "max dark", "budget", "lost acked", "digest mismatches"},
	}
	tbl.AddRow(
		fmt.Sprintf("%d", c.Writers),
		Dur(c.Round),
		fmt.Sprintf("%d", res.commits),
		fmt.Sprintf("%d", res.failed),
		fmt.Sprintf("%d on %s", len(res.victimPaths), res.victim),
		fmt.Sprintf("%d", promotions),
		fmt.Sprintf("%d", failovers),
		Dur(maxDark),
		Dur(c.Budget),
		fmt.Sprintf("%d", lost),
		fmt.Sprintf("%d", diverged),
	)
	tbl.Note("the kill is silent (no FailServer bookkeeping): the %v health probe detects the dead member and promotes each orphaned path's replica on its ring successor in place — no AbsorbDead, no cold start, no archive transfer; %d closes were rejected during the outage window and every one of them is accounted for (an acked close is never among them)", c.Probe, res.failed)
	tbl.Note("quiesce = FlushReplication (anti-entropy; a close archives before it returns, so there is no archive work to wait for), then every path's history — (version, size, sha256) of each version — is compared owner vs every replica, and a mismatch prints both copies with their state ids; quorum-failed closes during the outage: %d", quorumFails)

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
