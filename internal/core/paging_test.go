package core

import (
	"bytes"
	"math/rand"
	"testing"

	"datalinks/internal/extent"
)

// TestPagedOutFilesSurviveEveryPath gives each member a 1 MiB budget and 24
// MiB of linked files, so most of every member's committed chunks live only
// in its archive. On those paged-out files it commits, rolls back, fails
// over, restores the deployment to a past state and unlinks, and then reads
// every byte back. After each commit a member's fs.resident_bytes — which
// its /metrics registry publishes — is within the budget; while a writer is
// open, within the budget plus the chunks it wrote.
func TestPagedOutFilesSurviveEveryPath(t *testing.T) {
	const budget = 1 << 20
	c := newReplCluster(t, 3, func(cfg *ClusterConfig) {
		for i := range cfg.Members {
			cfg.Members[i].ArchiveMemoryBudget = budget
		}
	})
	paths := clusterPaths(24)
	want := make(map[string][]byte)
	rng := rand.New(rand.NewSource(50))
	content := func() []byte {
		b := make([]byte, 1<<20+rng.Intn(extent.ChunkSize))
		rng.Read(b)
		return b
	}
	owner := func(p string) *FileServer {
		t.Helper()
		id, err := c.Owner(p)
		if err != nil {
			t.Fatal(err)
		}
		m, err := c.Member(id)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	withinBudget := func(when string, dirty int64) {
		t.Helper()
		for _, id := range c.Members() {
			m, err := c.Member(id)
			if err != nil {
				continue // failed over
			}
			got := m.Phys.ResidentBytes()
			if got > budget+dirty {
				t.Fatalf("%s: %s holds %d resident bytes, budget %d + %d dirty", when, id, got, budget, dirty)
			}
			if reg := m.DLFM.Metrics().Counter("fs.resident_bytes").Value(); reg != got {
				t.Fatalf("%s: %s publishes fs.resident_bytes %d, holds %d", when, id, reg, got)
			}
		}
	}
	commit := func(i int) {
		t.Helper()
		p := paths[i]
		b := content()
		sess := c.NewSession(alice)
		wf, err := sess.OpenWrite(docURL(t, c, "DLURLCOMPLETEWRITE", i))
		if err != nil {
			t.Fatalf("open %s: %v", p, err)
		}
		if err := wf.Truncate(0); err != nil {
			t.Fatal(err)
		}
		if _, err := wf.WriteAt(0, b); err != nil {
			t.Fatal(err)
		}
		if err := wf.Close(); err != nil {
			t.Fatalf("commit %s: %v", p, err)
		}
		want[p] = b
		withinBudget("after the commit of "+p, 0)
	}
	readBack := func(when string) {
		t.Helper()
		for _, p := range paths {
			got, err := owner(p).Phys.ReadFile(p)
			if err != nil || !bytes.Equal(got, want[p]) {
				t.Fatalf("%s: %s read %d bytes, %v; want %d", when, p, len(got), err, len(want[p]))
			}
		}
	}
	for i, p := range paths {
		linkDoc(t, c, i, p, "v0 of "+p)
		commit(i)
	}
	paged := int64(0)
	for _, id := range c.Members() {
		m, _ := c.Member(id)
		paged += m.DLFM.Metrics().Counter("fs.pageouts").Value()
	}
	if paged == 0 {
		t.Fatal("24 MiB of commits under a 1 MiB budget paged nothing out")
	}
	readBack("after the commits")

	// Commit again over files whose chunks were paged out.
	for i := 0; i < 4; i++ {
		commit(i)
	}

	// Roll back an update over a paged-out file: the writer's chunks are
	// dirty, beyond the budget, until the abort.
	sess := c.NewSession(alice)
	wf, err := sess.OpenWrite(docURL(t, c, "DLURLCOMPLETEWRITE", 5))
	if err != nil {
		t.Fatal(err)
	}
	junk := bytes.Repeat([]byte("in-flight "), 3*extent.ChunkSize/10)
	if _, err := wf.WriteAt(extent.ChunkSize, junk); err != nil {
		t.Fatal(err)
	}
	withinBudget("with a writer open", int64(len(junk))+2*extent.ChunkSize)
	if err := wf.Abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}
	readBack("after the rollback")

	// Fail the owner of paths[6] over: its files are promoted on the
	// successors, installed with every chunk absent.
	victim, err := c.Owner(paths[6])
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FailServer(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Failover(victim); err != nil {
		t.Fatalf("failover: %v", err)
	}
	readBack("after the failover")
	commit(6)

	// Restore the deployment to the state before a commit of paths[7]: that
	// version is rolled away, and the file is back at the one before.
	state := c.Engine.StateID()
	before := want[paths[7]]
	commit(7)
	if err := c.Engine.RestoreToState(state); err != nil {
		t.Fatalf("restore: %v", err)
	}
	want[paths[7]] = before
	readBack("after the restore")

	// Unlink paths[8]: the file stays, its history goes, and its absent
	// chunks still load from the version the file holds.
	if _, err := c.DB().Exec(`DELETE FROM docs WHERE id = 8`); err != nil {
		t.Fatalf("unlink: %v", err)
	}
	owner(paths[8]).Archive.GCNow()
	readBack("after the unlink")
	withinBudget("at the end", 0)
}
