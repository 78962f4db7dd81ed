package harness

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"datalinks/internal/core"
)

func init() {
	Register(Experiment{
		ID:    "E23",
		Title: "Replicated shards: ring successor replication and automatic failover",
		Paper: "The paper's recovery story rebuilds a failed DLFM from its durable planes — correct, but a cold start: the namespace is dark until the repository WAL replays and the archive rematerializes. This experiment measures the replication extension: every committed version ships synchronously to the path's ring successors at the 2PC commit barrier, so when a member machine dies mid-soak the probe promotes the successors' replicas in place — no cold start, no data movement — and the soak must show zero lost acked commits, unavailability inside the declared failover budget, and byte-identical owner/replica histories after quiesce.",
		Run:   runE23,
	})
}

// The E23 knobs, exported so cmd/dlbench can sweep them from the command
// line. A FailoverServers-member cluster runs with Replicas copies of every
// path and a WriteQuorum of 2; FailoverWriters sessions soak in-place update
// commits for FailoverRound, one member is killed silently (no FailServer
// bookkeeping — the health probe has to notice) a third of the way in, and
// the run fails if any acked commit is lost, any orphaned path stays dark
// longer than FailoverBudget, or any replica's post-quiesce history digest
// diverges from its owner's.
var (
	FailoverServers = 3
	FailoverFiles   = 48
	FailoverWriters = 16
	FailoverRound   = 2 * time.Second
	// FailoverBudget is the declared ceiling on per-path unavailability: the
	// gap between the kill and the path's first post-kill acked commit.
	FailoverBudget = 2 * time.Second
	FailoverProbe  = 25 * time.Millisecond
)

// e23Setup builds the replicated cluster and links FailoverFiles rdd files.
func e23Setup() (*core.Cluster, []string, error) {
	members := make([]core.ServerConfig, FailoverServers)
	for i := range members {
		members[i] = core.ServerConfig{
			Name:     fmt.Sprintf("fs%d", i+1),
			OpenWait: 10 * time.Second,
		}
	}
	c, err := core.NewCluster(core.ClusterConfig{
		Members:       members,
		LockTimeout:   10 * time.Second,
		Replicas:      2,
		WriteQuorum:   2,
		ProbeInterval: FailoverProbe,
		AutoFailover:  true,
	})
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*core.Cluster, []string, error) {
		c.Close()
		return nil, nil, err
	}
	c.DB.MustExec(`CREATE TABLE fo (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES)`)
	paths := make([]string, FailoverFiles)
	for i := range paths {
		paths[i] = fmt.Sprintf("/r/f%d.bin", i)
		if err := c.SeedFile(paths[i], scaleoutContent(paths[i], 0), expUID); err != nil {
			return fail(err)
		}
		if _, err := c.DB.Exec(
			fmt.Sprintf(`INSERT INTO fo VALUES (%d, DLVALUE('%s'))`, i, c.URL(paths[i]))); err != nil {
			return fail(err)
		}
	}
	return c, paths, nil
}

// e23Result aggregates the soak.
type e23Result struct {
	commits     int64 // acked closes
	failed      int64 // closes rejected during the outage window (tolerated)
	acked       []int64
	firstOKAt   []time.Time // per path, first acked commit after the kill
	killedAt    time.Time
	victim      string
	victimPaths map[string]bool
}

// e23Traffic soaks commits across all paths and kills the victim mid-round.
// Unlike the scale-out round, writer errors are TOLERATED: the outage window
// legitimately rejects commits against orphaned paths (and quorum-fails
// commits whose successor died) until the failover lands. The invariant is
// not "every op succeeds" but "every op that was ACKED survives".
func e23Traffic(c *core.Cluster, paths []string) (*e23Result, error) {
	res := &e23Result{
		acked:       make([]int64, len(paths)),
		firstOKAt:   make([]time.Time, len(paths)),
		victimPaths: make(map[string]bool),
	}
	writers := FailoverWriters
	if writers > len(paths) {
		writers = len(paths)
	}
	pathMu := make([]sync.Mutex, len(paths))
	var commits, failed atomic.Int64
	stop := make(chan struct{})
	timer := time.AfterFunc(FailoverRound, func() { close(stop) })
	defer timer.Stop()
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}

	// The kill: a third into the round, the member owning paths[0] dies
	// silently — no FailServer bookkeeping, the probe must notice.
	var killErr error
	var killWG sync.WaitGroup
	killWG.Add(1)
	go func() {
		defer killWG.Done()
		time.Sleep(FailoverRound / 3)
		victim, err := c.Owner(paths[0])
		if err != nil {
			killErr = err
			return
		}
		for _, p := range paths {
			if owner, err := c.Owner(p); err == nil && owner == victim {
				res.victimPaths[p] = true
			}
		}
		res.victim = victim
		res.killedAt = time.Now()
		killErr = c.KillServer(victim)
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := c.NewSession(expUID)
			for !stopped() {
				for i := w; i < len(paths) && !stopped(); i += writers {
					err := func() error {
						pathMu[i].Lock()
						defer pathMu[i].Unlock()
						row, err := c.DB.QueryRow(fmt.Sprintf(`SELECT DLURLCOMPLETEWRITE(doc) FROM fo WHERE id = %d`, i))
						if err != nil {
							return err
						}
						f, err := sess.OpenWrite(row[0].S)
						if err != nil {
							return err
						}
						seq := res.acked[i] + 1
						if err := f.WriteAll(scaleoutContent(paths[i], seq)); err != nil {
							_ = f.Abort()
							return err
						}
						if err := f.Close(); err != nil {
							return err
						}
						res.acked[i] = seq
						if !res.killedAt.IsZero() && res.firstOKAt[i].IsZero() {
							res.firstOKAt[i] = time.Now()
						}
						return nil
					}()
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
func e23Lost(c *core.Cluster, paths []string, acked []int64) (int, error) {
	c.WaitArchives()
	lost := 0
	for i, p := range paths {
		id, err := c.Owner(p)
		if err != nil {
			return 0, fmt.Errorf("owner %s: %w", p, err)
		}
		m, err := c.Member(id)
		if err != nil {
			return 0, err
		}
		content, err := m.Phys.ReadFile(p)
		if err != nil {
			return 0, fmt.Errorf("read back %s on %s: %w", p, id, err)
		}
		if scaleoutSeq(content) < acked[i] {
			lost++
		}
	}
	return lost, nil
}

// e23ReplicaDigests compares every path's history digest on its owner
// against every replica in its successor set; returns the divergent count.
func e23ReplicaDigests(c *core.Cluster, paths []string) (int, error) {
	diverged := 0
	for _, p := range paths {
		set := c.ReplicaSet(p)
		ownerDigest, err := e23MemberDigest(c, set[0], p)
		if err != nil {
			return 0, err
		}
		for _, id := range set[1:] {
			d, err := e23MemberDigest(c, id, p)
			if err != nil {
				return 0, err
			}
			if d != ownerDigest {
				diverged++
			}
		}
	}
	return diverged, nil
}

func e23MemberDigest(c *core.Cluster, id, path string) (string, error) {
	m, err := c.Member(id)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, e := range m.Archive.Versions(c.Authority(), path) {
		fmt.Fprintf(h, "%d:%d:", e.Version, len(e.Content()))
		h.Write(e.Content())
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// runE23 soaks committed updates while a member machine dies mid-round and
// proves the three replication invariants.
func runE23() ([]*Table, error) {
	c, paths, err := e23Setup()
	if err != nil {
		return nil, err
	}
	defer c.Close()

	res, err := e23Traffic(c, paths)
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
	lost, err := e23Lost(c, paths, res.acked)
	if err != nil {
		return nil, err
	}
	if err := c.FlushReplication(); err != nil {
		return nil, fmt.Errorf("E23 quiesce flush: %w", err)
	}
	diverged, err := e23ReplicaDigests(c, paths)
	if err != nil {
		return nil, err
	}

	failovers := c.Router().Metrics().Counter("repl.failovers").Value()
	var promotions, quorumFails int64
	for _, id := range c.Members() {
		if m, err := c.Member(id); err == nil {
			promotions += m.DLFM.Metrics().Counter("dlfm.repl.promotions").Value()
			quorumFails += m.DLFM.Metrics().Counter("dlfm.repl.quorum_failures").Value()
		}
	}

	tbl := &Table{
		Caption: "E23. Mid-soak member kill with ring-successor replication (Replicas=2, quorum=2)",
		Headers: []string{"writers", "round", "acked commits", "rejected (outage)", "victim paths", "promoted", "failovers", "max dark", "budget", "lost acked", "digest mismatches"},
	}
	tbl.AddRow(
		fmt.Sprintf("%d", FailoverWriters),
		Dur(FailoverRound),
		fmt.Sprintf("%d", res.commits),
		fmt.Sprintf("%d", res.failed),
		fmt.Sprintf("%d on %s", len(res.victimPaths), res.victim),
		fmt.Sprintf("%d", promotions),
		fmt.Sprintf("%d", failovers),
		Dur(maxDark),
		Dur(FailoverBudget),
		fmt.Sprintf("%d", lost),
		fmt.Sprintf("%d", diverged),
	)
	tbl.Note("the kill is silent (no FailServer bookkeeping): the %v health probe detects the dead member and promotes each orphaned path's replica on its ring successor in place — no AbsorbDead, no cold start, no archive transfer; %d closes were rejected during the outage window and every one of them is accounted for (an acked close is never among them)", FailoverProbe, res.failed)
	tbl.Note("quiesce = WaitArchives + FlushReplication (anti-entropy), then every path's (version, length, bytes) history digest is compared owner vs every replica; quorum-failed closes during the outage: %d", quorumFails)

	if lost > 0 {
		return []*Table{tbl}, fmt.Errorf("E23 FAILED: %d acked commit(s) lost across the kill", lost)
	}
	if diverged > 0 {
		return []*Table{tbl}, fmt.Errorf("E23 FAILED: %d replica history digest(s) diverge from their owner after quiesce", diverged)
	}
	if neverBack > 0 {
		return []*Table{tbl}, timingGate(tbl, "E23", "%d victim path(s) never served a commit again after the kill", neverBack)
	}
	if maxDark > FailoverBudget {
		return []*Table{tbl}, timingGate(tbl, "E23", "a path stayed dark %v after the kill (budget %v)", maxDark, FailoverBudget)
	}
	return []*Table{tbl}, nil
}
