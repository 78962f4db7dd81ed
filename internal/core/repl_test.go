package core

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"datalinks/internal/retry"
	"datalinks/internal/upcall"
)

// newReplCluster builds an n-member deployment with replication on.
func newReplCluster(t *testing.T, n int, mut func(*ClusterConfig)) *Cluster {
	t.Helper()
	members := make([]ServerConfig, n)
	for i := range members {
		members[i] = ServerConfig{Name: fmt.Sprintf("fs%d", i+1), OpenWait: 300 * time.Millisecond}
	}
	cfg := ClusterConfig{
		Members:     members,
		LockTimeout: 500 * time.Millisecond,
		Replicas:    2,
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatalf("new cluster: %v", err)
	}
	t.Cleanup(c.Close)
	c.DB.MustExec(`CREATE TABLE docs (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES)`)
	return c
}

// memberDigest hashes one member's full version history of a path — owner and
// replica digests must be byte-identical after quiesce.
func memberDigest(t *testing.T, c *Cluster, id, path string) string {
	t.Helper()
	m, err := c.Member(id)
	if err != nil {
		t.Fatalf("member %s: %v", id, err)
	}
	h := sha256.New()
	for _, e := range m.Archive.Versions(c.Authority(), path) {
		fmt.Fprintf(h, "%d:%d:", e.Version, len(bytesOf(t, e)))
		h.Write(bytesOf(t, e))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// assertReplicasConverged checks every path's replica set holds an identical
// history to its owner.
func assertReplicasConverged(t *testing.T, c *Cluster, paths []string) {
	t.Helper()
	for _, p := range paths {
		set := c.ReplicaSet(p)
		owner := set[0]
		want := memberDigest(t, c, owner, p)
		for _, id := range set[1:] {
			if got := memberDigest(t, c, id, p); got != want {
				t.Fatalf("%s: replica %s digest %s != owner %s digest %s", p, id, got[:12], owner, want[:12])
			}
		}
	}
}

// commitUpdate writes one new version through the full session protocol.
func commitUpdate(t *testing.T, c *Cluster, docID int, content string) error {
	t.Helper()
	sess := c.NewSession(alice)
	wf, err := sess.OpenWrite(docURL(t, c, "DLURLCOMPLETEWRITE", docID))
	if err != nil {
		return err
	}
	if err := wf.WriteAll([]byte(content)); err != nil {
		wf.Close()
		return err
	}
	return wf.Close()
}

func TestReplicationShipsOnCommit(t *testing.T) {
	c := newReplCluster(t, 3, nil)
	paths := clusterPaths(8)
	for i, p := range paths {
		linkDoc(t, c, i, p, "v0 of "+p)
		if err := commitUpdate(t, c, i, "v1 of "+p); err != nil {
			t.Fatalf("commit %s: %v", p, err)
		}
	}
	c.WaitArchives()
	for _, p := range paths {
		set := c.ReplicaSet(p)
		if len(set) != 2 || set[0] == set[1] {
			t.Fatalf("%s replica set %v, want 2 distinct members", p, set)
		}
		owner, _ := c.Owner(p)
		if set[0] != owner {
			t.Fatalf("%s replica set %v does not lead with owner %s", p, set, owner)
		}
		m, _ := c.Member(set[1])
		// The replica acked both the link (v0) and the commit (v1)
		// synchronously — no anti-entropy pass has run.
		if got := m.DLFM.ReplicaVersion(p); got != 1 {
			t.Fatalf("%s replica on %s at version %d, want 1", p, set[1], got)
		}
	}
	assertReplicasConverged(t, c, paths)
}

func TestReplicationRetriesThroughChaos(t *testing.T) {
	chaos := &upcall.Chaos{Seed: 42, DropProb: 0.2, ResetProb: 0.1}
	c := newReplCluster(t, 3, func(cfg *ClusterConfig) {
		cfg.WriteQuorum = 2
		cfg.ReplChaos = chaos
		cfg.ReplRetry = retry.Policy{MaxAttempts: 10, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
	})
	paths := clusterPaths(6)
	for i, p := range paths {
		linkDoc(t, c, i, p, "v0 of "+p)
	}
	// Every commit must reach its quorum through dropped and reset frames —
	// the retry discipline absorbs the chaos.
	for round := 1; round <= 4; round++ {
		for i, p := range paths {
			if err := commitUpdate(t, c, i, fmt.Sprintf("v%d of %s", round, p)); err != nil {
				t.Fatalf("commit round %d %s: %v", round, p, err)
			}
		}
	}
	st := chaos.Stats()
	if st.Drops == 0 && st.Resets == 0 {
		t.Fatal("chaos injected nothing — the test exercised no faults")
	}
	chaos.Enable(false)
	c.WaitArchives()
	if err := c.FlushReplication(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	assertReplicasConverged(t, c, paths)
}

func TestPartitionFailsQuorumWithoutRollback(t *testing.T) {
	chaos := &upcall.Chaos{Seed: 7}
	c := newReplCluster(t, 3, func(cfg *ClusterConfig) {
		cfg.WriteQuorum = 2
		cfg.ReplChaos = chaos
		cfg.ReplRetry = retry.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	})
	p := clusterPaths(1)[0]
	linkDoc(t, c, 0, p, "v0 of "+p)
	c.WaitArchives()

	chaos.Partition(true)
	err := commitUpdate(t, c, 0, "v1 of "+p)
	if err == nil {
		t.Fatal("commit reached quorum across a full partition")
	}
	if !strings.Contains(err.Error(), "under-replicated") {
		t.Fatalf("partitioned commit error = %v, want under-replicated", err)
	}
	// The owner committed and archived the version — the writer's rejection
	// reports under-replication, not loss.
	c.WaitArchives()
	owner, _ := c.Owner(p)
	m, _ := c.Member(owner)
	vs := m.Archive.Versions(c.Authority(), p)
	if len(vs) != 2 || string(bytesOf(t, vs[1])) != "v1 of "+p {
		t.Fatalf("owner history after partitioned commit: %d versions", len(vs))
	}
	// Heal: anti-entropy repairs the replica gap no later commit would fill.
	chaos.Partition(false)
	chaos.Enable(false)
	if err := c.FlushReplication(); err != nil {
		t.Fatalf("flush after heal: %v", err)
	}
	assertReplicasConverged(t, c, []string{p})
}

func TestFailoverPromotesReplicas(t *testing.T) {
	c := newReplCluster(t, 3, nil)
	paths := clusterPaths(12)
	for i, p := range paths {
		linkDoc(t, c, i, p, "v0 of "+p)
		if err := commitUpdate(t, c, i, "v1 of "+p); err != nil {
			t.Fatalf("commit %s: %v", p, err)
		}
	}
	c.WaitArchives()
	victim := ""
	for _, p := range paths {
		owner, _ := c.Owner(p)
		victim = owner
		break
	}
	victimPaths := map[string]bool{}
	secondSucc := map[string]string{}
	for _, p := range paths {
		if owner, _ := c.Owner(p); owner == victim {
			victimPaths[p] = true
			secondSucc[p] = c.ReplicaSet(p)[1]
		}
	}
	if len(victimPaths) == 0 {
		t.Skipf("hash placed no test path on %s", victim)
	}

	if err := c.FailServer(victim); err != nil {
		t.Fatalf("fail: %v", err)
	}
	rep, err := c.Failover(victim)
	if err != nil {
		t.Fatalf("failover: %v", err)
	}
	promoted := map[string]bool{}
	for _, p := range rep.Promoted {
		promoted[p] = true
	}
	for p := range victimPaths {
		if !promoted[p] {
			t.Fatalf("%s (owned by dead %s) was not promoted; report %v", p, victim, rep.Promoted)
		}
	}
	// Failover needs no AbsorbDead: the dead member's durable state was never
	// touched (these members have none), yet every path serves its last
	// acked version — from the promoted replica, on the ring successor.
	sess := c.NewSession(alice)
	for i, p := range paths {
		owner, err := c.Owner(p)
		if err != nil {
			t.Fatalf("%s unowned after failover: %v", p, err)
		}
		if owner == victim {
			t.Fatalf("%s still routed to dead %s", p, victim)
		}
		if victimPaths[p] && owner != secondSucc[p] {
			t.Fatalf("%s promoted on %s, want second successor %s", p, owner, secondSucc[p])
		}
		f, err := sess.OpenRead(docURL(t, c, "DLURLCOMPLETE", i))
		if err != nil {
			t.Fatalf("read %s after failover: %v", p, err)
		}
		data, _ := f.ReadAll()
		f.Close()
		if string(data) != "v1 of "+p {
			t.Fatalf("%s after failover = %q, want committed v1", p, data)
		}
	}
	// Writes continue, version numbering unbroken, and the new owner ships
	// to the new successor set.
	for i, p := range paths {
		if err := commitUpdate(t, c, i, "v2 of "+p); err != nil {
			t.Fatalf("post-failover commit %s: %v", p, err)
		}
	}
	c.WaitArchives()
	if err := c.FlushReplication(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for _, p := range paths {
		owner, _ := c.Owner(p)
		m, _ := c.Member(owner)
		vs := m.Archive.Versions(c.Authority(), p)
		if len(vs) != 3 || string(bytesOf(t, vs[2])) != "v2 of "+p {
			t.Fatalf("%s history after failover: %d versions", p, len(vs))
		}
	}
	assertReplicasConverged(t, c, paths)
	if c.router.reg.Counter("repl.failovers").Value() != 1 {
		t.Fatal("repl.failovers counter not incremented")
	}
}

func TestPartitionDuringFailover(t *testing.T) {
	chaos := &upcall.Chaos{Seed: 11}
	c := newReplCluster(t, 3, func(cfg *ClusterConfig) {
		cfg.WriteQuorum = 1
		cfg.ReplChaos = chaos
		cfg.ReplRetry = retry.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	})
	paths := clusterPaths(8)
	for i, p := range paths {
		linkDoc(t, c, i, p, "v0 of "+p)
		if err := commitUpdate(t, c, i, "v1 of "+p); err != nil {
			t.Fatalf("commit %s: %v", p, err)
		}
	}
	c.WaitArchives()
	victim := c.Members()[0]
	if err := c.FailServer(victim); err != nil {
		t.Fatal(err)
	}
	// The replication stream partitions while the failover runs: promotion is
	// local (replica + row are already on the successor), so paths still come
	// back — only the redundancy repair is deferred.
	chaos.Partition(true)
	if _, err := c.Failover(victim); err != nil {
		t.Logf("failover under partition (repair deferred): %v", err)
	}
	sess := c.NewSession(alice)
	for i, p := range paths {
		owner, err := c.Owner(p)
		if err != nil || owner == victim {
			t.Fatalf("%s not served after failover under partition: owner=%s err=%v", p, owner, err)
		}
		f, err := sess.OpenRead(docURL(t, c, "DLURLCOMPLETE", i))
		if err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		data, _ := f.ReadAll()
		f.Close()
		if string(data) != "v1 of "+p {
			t.Fatalf("%s = %q after failover under partition", p, data)
		}
	}
	chaos.Partition(false)
	chaos.Enable(false)
	if err := c.FlushReplication(); err != nil {
		t.Fatalf("flush after heal: %v", err)
	}
	assertReplicasConverged(t, c, paths)
}

func TestReplicaReadsWhenOwnerDown(t *testing.T) {
	c := newReplCluster(t, 3, func(cfg *ClusterConfig) {
		cfg.WriteQuorum = 1
		cfg.ReplicaReads = true
	})
	paths := clusterPaths(6)
	for i, p := range paths {
		linkDoc(t, c, i, p, "v0 of "+p)
		if err := commitUpdate(t, c, i, "v1 of "+p); err != nil {
			t.Fatalf("commit %s: %v", p, err)
		}
	}
	c.WaitArchives()
	p := paths[0]
	owner, _ := c.Owner(p)
	if err := c.FailServer(owner); err != nil {
		t.Fatal(err)
	}
	// No failover has run — the owner is simply dark. The read falls back to
	// the replica, stale-bounded by the quorum-acked version.
	data, err := c.router.ReadFileContent(p)
	if err != nil {
		t.Fatalf("replica read with owner down: %v", err)
	}
	if string(data) != "v1 of "+p {
		t.Fatalf("replica read = %q, want v1", data)
	}
	if c.router.reg.Counter("repl.stale_reads").Value() == 0 {
		t.Fatal("repl.stale_reads not counted")
	}
}

// TestAbsorbDeadCrashMidAbsorb kills the absorbing process partway through
// (the migrate hook fails after two paths) and asserts a second AbsorbDead
// converges: every path lands exactly once, with its full history, and the
// half-recovered stack is neither routable nor double-imported.
func TestAbsorbDeadCrashMidAbsorb(t *testing.T) {
	members := []ServerConfig{
		{Name: "fs1", OpenWait: 300 * time.Millisecond,
			RepoDir: t.TempDir(), ArchiveDir: t.TempDir()},
		{Name: "fs2", OpenWait: 300 * time.Millisecond,
			RepoDir: t.TempDir(), ArchiveDir: t.TempDir()},
	}
	c, err := NewCluster(ClusterConfig{Members: members, LockTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatalf("new cluster: %v", err)
	}
	defer c.Close()
	c.DB.MustExec(`CREATE TABLE docs (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES)`)
	paths := clusterPaths(12)
	sess := c.NewSession(alice)
	onFs2 := 0
	for i, p := range paths {
		linkDoc(t, c, i, p, "v0 of "+p)
		wf, err := sess.OpenWrite(docURL(t, c, "DLURLCOMPLETEWRITE", i))
		if err != nil {
			t.Fatalf("write open %s: %v", p, err)
		}
		if err := wf.WriteAll([]byte("v1 of " + p)); err != nil {
			t.Fatal(err)
		}
		if err := wf.Close(); err != nil {
			t.Fatalf("commit %s: %v", p, err)
		}
		if owner, _ := c.Owner(p); owner == "fs2" {
			onFs2++
		}
	}
	if onFs2 < 3 {
		t.Skipf("hash placed only %d paths on fs2", onFs2)
	}
	c.WaitArchives()
	if err := c.FailServer("fs2"); err != nil {
		t.Fatal(err)
	}

	// First absorb dies after two successful migrations.
	injected := errors.New("absorbing process killed")
	migrated := 0
	c.migrateHook = func(path, src, dst string) error {
		if src != "fs2" {
			return nil
		}
		if migrated >= 2 {
			return injected
		}
		migrated++
		return nil
	}
	if err := c.AbsorbDead("fs2"); !errors.Is(err, injected) {
		t.Fatalf("first absorb: %v, want injected kill", err)
	}
	// The half-recovered stack must NOT stay routable: its processes are
	// closed, so leaving it in the member table would wedge every lookup
	// that resolves to it — and block the retry.
	if got := strings.Join(c.Members(), ","); got != "fs1" {
		t.Fatalf("members after crashed absorb: %s, want fs1", got)
	}
	// Paths that migrated before the crash serve from fs1 already.
	served := 0
	for _, p := range paths {
		if owner, err := c.Owner(p); err == nil && owner == "fs1" {
			served++
		}
	}
	if served < 2 {
		t.Fatalf("only %d paths served after partial absorb, want the 2 migrated ones at least", served)
	}

	// Second absorb converges.
	c.migrateHook = nil
	if err := c.AbsorbDead("fs2"); err != nil {
		t.Fatalf("second absorb: %v", err)
	}
	m, _ := c.Member("fs1")
	linked := m.DLFM.LinkedPaths()
	if len(linked) != len(paths) {
		t.Fatalf("fs1 links %d paths after convergence, want %d", len(linked), len(paths))
	}
	for i, p := range paths {
		owner, err := c.Owner(p)
		if err != nil || owner != "fs1" {
			t.Fatalf("%s owner = %s, %v", p, owner, err)
		}
		// No lost versions, no double-imported versions: exactly v0 and v1.
		vs := m.Archive.Versions(c.Authority(), p)
		if len(vs) != 2 {
			t.Fatalf("%s history: %d versions, want 2", p, len(vs))
		}
		if string(bytesOf(t, vs[0])) != "v0 of "+p || string(bytesOf(t, vs[1])) != "v1 of "+p {
			t.Fatalf("%s history content corrupted", p)
		}
		f, err := sess.OpenRead(docURL(t, c, "DLURLCOMPLETE", i))
		if err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		data, _ := f.ReadAll()
		f.Close()
		if string(data) != "v1 of "+p {
			t.Fatalf("%s = %q after convergence", p, data)
		}
	}
}

// TestKillServerProbeAutoFailover: the probe notices a silent machine death
// and fails the member over on its own — and when that Failover returns an
// error it is counted and tried again on a later tick, not forgotten with the
// member already off the member list.
func TestKillServerProbeAutoFailover(t *testing.T) {
	for _, firstFails := range []bool{false, true} {
		t.Run(fmt.Sprintf("firstFails=%v", firstFails), func(t *testing.T) {
			c := newReplCluster(t, 3, func(cfg *ClusterConfig) {
				cfg.WriteQuorum = 1
				cfg.ProbeInterval = 20 * time.Millisecond
				cfg.AutoFailover = true
			})
			paths := clusterPaths(8)
			seedReplicated(t, c, paths)
			victim, _ := c.Owner(paths[0])
			var promotes atomic.Int32
			c.migrateHook = func(path, src, dst string) error {
				if firstFails && src == victim && promotes.Add(1) == 1 {
					return errors.New("promoting member stumbled")
				}
				return nil
			}
			// Silent machine death: no FailServer bookkeeping.
			if err := c.KillServer(victim); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				allServed := true
				for _, p := range paths {
					owner, err := c.Owner(p)
					if err != nil || owner == victim {
						allServed = false
						break
					}
				}
				if allServed {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("auto failover did not restore service within 5s")
				}
				time.Sleep(10 * time.Millisecond)
			}
			sess := c.NewSession(alice)
			for i, p := range paths {
				f, err := sess.OpenRead(docURL(t, c, "DLURLCOMPLETE", i))
				if err != nil {
					t.Fatalf("read %s after auto failover: %v", p, err)
				}
				data, _ := f.ReadAll()
				f.Close()
				if string(data) != "v1 of "+p {
					t.Fatalf("%s = %q after auto failover", p, data)
				}
			}
			if c.router.reg.Counter("repl.failovers").Value() == 0 {
				t.Fatal("repl.failovers not counted by the probe-driven failover")
			}
			if got := c.router.reg.Counter("repl.failover_errors").Value(); (got > 0) != firstFails {
				t.Fatalf("repl.failover_errors = %d with firstFails=%v", got, firstFails)
			}
		})
	}
}

// seedReplicated links the paths, commits one update on each and waits for
// the archives, so every path has a two-version history on its replica set.
func seedReplicated(t *testing.T, c *Cluster, paths []string) {
	t.Helper()
	for i, p := range paths {
		linkDoc(t, c, i, p, "v0 of "+p)
		if err := commitUpdate(t, c, i, "v1 of "+p); err != nil {
			t.Fatalf("commit %s: %v", p, err)
		}
	}
	c.WaitArchives()
}

// assertMembershipChangeComposed checks what a membership change must leave
// behind on a replicated cluster: gone is off the ring, every path is linked
// on exactly its owner, no owner is also a replica of what it owns, a further
// commit on every path succeeds, and the replica sets converge.
func assertMembershipChangeComposed(t *testing.T, c *Cluster, paths []string, gone string) {
	t.Helper()
	for i, p := range paths {
		owner, err := c.Owner(p)
		if err != nil || owner == gone {
			t.Fatalf("%s owner after %s left = %q, %v", p, gone, owner, err)
		}
		for _, id := range c.Members() {
			m, _ := c.Member(id)
			if linked := m.DLFM.IsLinked(p); linked != (id == owner) {
				t.Fatalf("%s linked on %s = %v, owner is %s", p, id, linked, owner)
			}
		}
		m, _ := c.Member(owner)
		if v := m.DLFM.ReplicaVersion(p); v != -1 {
			t.Fatalf("owner %s still holds a replica row for %s (version %d)", owner, p, v)
		}
		if err := commitUpdate(t, c, i, "v2 of "+p); err != nil {
			t.Fatalf("commit %s after %s left: %v", p, gone, err)
		}
	}
	c.WaitArchives()
	if err := c.FlushReplication(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for _, p := range paths {
		owner, _ := c.Owner(p)
		m, _ := c.Member(owner)
		vs := m.Archive.Versions(c.Authority(), p)
		if len(vs) != 3 || string(bytesOf(t, vs[2])) != "v2 of "+p {
			t.Fatalf("%s history on %s after %s left: %d versions, want v0..v2", p, owner, gone, len(vs))
		}
		if set := c.ReplicaSet(p); len(set) != 2 || set[0] != owner || set[1] == owner {
			t.Fatalf("%s replica set %v, want owner %s and one other member", p, set, owner)
		}
	}
	assertReplicasConverged(t, c, paths)
}

// TestReplicationRemoveServerMovesOntoReplicas: removing an owner hands each
// of its paths to the very member that holds the replica, so the move must
// find the history already there — no version travels, no byte is stored, the
// replica row becomes the link row.
func TestReplicationRemoveServerMovesOntoReplicas(t *testing.T) {
	c := newReplCluster(t, 3, nil)
	// Paths fs2 owns with fs3 as the replica, and paths fs2 has no part in:
	// nothing but the moves can then put a byte on fs3 — the re-replication
	// after the ring swap only ever ships to fs1.
	var paths []string
	moving := 0
	for _, p := range clusterPaths(200) {
		switch strings.Join(c.ReplicaSet(p), ",") {
		case "fs2,fs3":
			moving++
		case "fs1,fs3", "fs3,fs1":
		default:
			continue
		}
		if paths = append(paths, p); len(paths) == 12 {
			break
		}
	}
	if moving == 0 {
		t.Skip("hash placed no test path on fs2 with its replica on fs3")
	}
	seedReplicated(t, c, paths)
	leaving, _ := c.Member("fs2")
	dst, _ := c.Member("fs3")
	before := dst.Archive.Dedup().NewBytes

	if err := c.RemoveServer("fs2"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if after := dst.Archive.Dedup().NewBytes; after != before {
		t.Fatalf("%d moves onto replica holder fs3 stored %d new bytes", moving, after-before)
	}
	if n := leaving.DLFM.Metrics().Counter("repl.lag_versions").Value(); n != 0 {
		t.Fatalf("%d versions travelled out of fs2; fs3 already had them all", n)
	}
	assertMembershipChangeComposed(t, c, paths, "fs2")
}

// TestReplicationAbsorbDeadOntoReplicas is the same composition for a dead
// member absorbed from its durable directories.
func TestReplicationAbsorbDeadOntoReplicas(t *testing.T) {
	c := newReplCluster(t, 3, func(cfg *ClusterConfig) {
		for i := range cfg.Members {
			cfg.Members[i].RepoDir, cfg.Members[i].ArchiveDir = t.TempDir(), t.TempDir()
		}
	})
	paths := clusterPaths(12)
	seedReplicated(t, c, paths)
	if dying, _ := c.Member("fs2"); len(dying.DLFM.LinkedPaths()) == 0 {
		t.Skip("hash placed no test path on fs2")
	}
	if err := c.FailServer("fs2"); err != nil {
		t.Fatalf("fail: %v", err)
	}
	if err := c.AbsorbDead("fs2"); err != nil {
		t.Fatalf("absorb: %v", err)
	}
	if got := strings.Join(c.Members(), ","); got != "fs1,fs3" {
		t.Fatalf("members after absorb: %s", got)
	}
	assertMembershipChangeComposed(t, c, paths, "fs2")
}

// TestReplicationFailedMoveLeavesNoStrayHistory: a move whose bundle import
// fails leaves the source the owner; a destination that held the replica
// keeps it (it is still the replica), one that held nothing keeps nothing.
func TestReplicationFailedMoveLeavesNoStrayHistory(t *testing.T) {
	c := newReplCluster(t, 3, nil)
	p := clusterPaths(1)[0]
	seedReplicated(t, c, []string{p})
	set := c.ReplicaSet(p)
	src, _ := c.Member(set[0])
	replica, _ := c.Member(set[1])
	var stranger *FileServer
	for _, id := range c.Members() {
		if id != set[0] && id != set[1] {
			stranger, _ = c.Member(id)
		}
	}
	// A directory where the file should go fails ImportBundle after the
	// history transfer.
	for _, m := range []*FileServer{replica, stranger} {
		if err := m.Phys.MkdirAll(p, clusterRoot, 0o777); err != nil {
			t.Fatal(err)
		}
	}
	for _, dst := range []*FileServer{stranger, replica} {
		if err := c.migratePath(src, dst, p); err == nil {
			t.Fatalf("move onto %s succeeded over a directory", dst.Name)
		}
		if owner, _ := c.Owner(p); owner != src.Name || !src.DLFM.IsLinked(p) || dst.DLFM.IsLinked(p) {
			t.Fatalf("failed move onto %s changed the owner (now %s)", dst.Name, owner)
		}
	}
	if n := len(stranger.Archive.Versions(c.Authority(), p)); n != 0 {
		t.Fatalf("%s keeps %d versions of a path it neither owns nor replicates", stranger.Name, n)
	}
	if n, v := len(replica.Archive.Versions(c.Authority(), p)), replica.DLFM.ReplicaVersion(p); n != 2 || v != 1 {
		t.Fatalf("replica %s after the failed move: %d versions, row at %d; want 2, 1", replica.Name, n, v)
	}
	// The source still commits and ships, and with the obstacle gone the
	// move lands on the replica it left intact.
	if err := commitUpdate(t, c, 0, "v2 of "+p); err != nil {
		t.Fatalf("commit after failed moves: %v", err)
	}
	c.WaitArchives()
	if err := replica.Phys.Rmdir(p, clusterRoot); err != nil {
		t.Fatal(err)
	}
	if err := c.migratePath(src, replica, p); err != nil {
		t.Fatalf("move onto the replica: %v", err)
	}
	if !replica.DLFM.IsLinked(p) || replica.DLFM.ReplicaVersion(p) != -1 || len(replica.Archive.Versions(c.Authority(), p)) != 3 {
		t.Fatalf("%s after the move: linked %v, replica row %d, %d versions", replica.Name,
			replica.DLFM.IsLinked(p), replica.DLFM.ReplicaVersion(p), len(replica.Archive.Versions(c.Authority(), p)))
	}
}

// TestReplicationReplicaAheadResyncs: a replica holding a version its owner
// does not (the owner was restored behind it) is a chain gap like any other —
// anti-entropy drops the copy and ships the owner's history from the start.
func TestReplicationReplicaAheadResyncs(t *testing.T) {
	c := newReplCluster(t, 3, nil)
	paths := clusterPaths(1)
	seedReplicated(t, c, paths)
	replica, _ := c.Member(c.ReplicaSet(paths[0])[1])
	if err := replica.Archive.Put(c.Authority(), paths[0], 2, 999, []byte("never committed by the owner")); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushReplication(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if n := len(replica.Archive.Versions(c.Authority(), paths[0])); n != 2 {
		t.Fatalf("replica has %d versions after the resync, want the owner's 2", n)
	}
	assertReplicasConverged(t, c, paths)
}
