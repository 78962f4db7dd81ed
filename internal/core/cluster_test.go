package core

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"datalinks/internal/archive"
)

// bytesOf materializes an archived version (a fresh copy), failing the test
// when it cannot — a version that does not materialize is never an empty one.
func bytesOf(t testing.TB, e archive.Entry) []byte {
	t.Helper()
	snap, err := e.Snapshot()
	if err != nil {
		t.Errorf("materialize %s v%d: %v", e.Path, e.Version, err)
		return nil
	}
	defer snap.Release()
	return snap.Bytes()
}

// newCluster builds an n-member scale-out deployment with a docs table.
func newCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	members := make([]ServerConfig, n)
	for i := range members {
		members[i] = ServerConfig{Name: fmt.Sprintf("fs%d", i+1), OpenWait: 300 * time.Millisecond}
	}
	c, err := NewCluster(ClusterConfig{
		Members:     members,
		LockTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("new cluster: %v", err)
	}
	closeAtEnd(t, c)
	c.DB().MustExec(`CREATE TABLE docs (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES)`)
	return c
}

// linkDoc seeds and links one file under the cluster authority.
func linkDoc(t *testing.T, c *Cluster, id int, path, content string) {
	t.Helper()
	if err := c.SeedFile(path, []byte(content), alice); err != nil {
		t.Fatalf("seed %s: %v", path, err)
	}
	if _, err := c.DB().Exec(fmt.Sprintf(
		`INSERT INTO docs (id, doc) VALUES (%d, DLVALUE('%s'))`, id, c.URL(path))); err != nil {
		t.Fatalf("link %s: %v", path, err)
	}
}

// docURL fetches the tokenized URL for one doc row.
func docURL(t *testing.T, c *Cluster, fn string, id int) string {
	t.Helper()
	row, err := c.DB().QueryRow(fmt.Sprintf(`SELECT %s(doc) FROM docs WHERE id = %d`, fn, id))
	if err != nil {
		t.Fatalf("%s: %v", fn, err)
	}
	return row[0].S
}

// historyDigest hashes a path's full version history on its owner.
func historyDigest(t *testing.T, c *Cluster, path string) string {
	t.Helper()
	id, err := c.Owner(path)
	if err != nil {
		t.Fatalf("owner %s: %v", path, err)
	}
	m, _ := c.Member(id)
	h := sha256.New()
	for _, e := range m.Archive.Versions(c.Authority(), path) {
		fmt.Fprintf(h, "%d:%d:", e.Version, len(bytesOf(t, e)))
		h.Write(bytesOf(t, e))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func clusterPaths(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("/c/f%d.bin", i)
	}
	return out
}

func TestClusterLinkRoutingAndReadWrite(t *testing.T) {
	c := newCluster(t, 3)
	paths := clusterPaths(16)
	for i, p := range paths {
		linkDoc(t, c, i, p, "v0 of "+p)
	}
	// Each link lives exactly on its ring owner.
	rg := c.Router().Ring()
	linkedTotal := 0
	for _, p := range paths {
		owner, err := c.Owner(p)
		if err != nil {
			t.Fatalf("owner %s: %v", p, err)
		}
		if want := rg.Lookup(p); owner != want {
			t.Fatalf("%s owned by %s, ring says %s", p, owner, want)
		}
		for _, id := range c.Members() {
			m, _ := c.Member(id)
			if m.DLFM.IsLinked(p) != (id == owner) {
				t.Fatalf("%s linked=%v on %s (owner %s)", p, m.DLFM.IsLinked(p), id, owner)
			}
		}
	}
	for _, n := range c.Placements() {
		linkedTotal += n
	}
	if linkedTotal != len(paths) {
		t.Fatalf("placements sum %d, want %d", linkedTotal, len(paths))
	}
	// Tokenized reads and transactional writes route through the ring.
	sess := c.NewSession(bob)
	f, err := sess.OpenRead(docURL(t, c, "DLURLCOMPLETE", 3))
	if err != nil {
		t.Fatalf("read open: %v", err)
	}
	data, _ := f.ReadAll()
	f.Close()
	if string(data) != "v0 of "+paths[3] {
		t.Fatalf("read = %q", data)
	}
	wf, err := sess.OpenWrite(docURL(t, c, "DLURLCOMPLETEWRITE", 3))
	if err != nil {
		t.Fatalf("write open: %v", err)
	}
	if err := wf.WriteAll([]byte("v1 of " + paths[3])); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := wf.Close(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	owner, _ := c.Owner(paths[3])
	m, _ := c.Member(owner)
	vs := m.Archive.Versions(c.Authority(), paths[3])
	if len(vs) != 2 || string(bytesOf(t, vs[1])) != "v1 of "+paths[3] {
		t.Fatalf("versions after commit: %d", len(vs))
	}
}

func TestClusterAddServerMigratesMinimally(t *testing.T) {
	c := newCluster(t, 2)
	paths := clusterPaths(24)
	sess := c.NewSession(bob)
	for i, p := range paths {
		linkDoc(t, c, i, p, "v0 of "+p)
		// Give half the files a second version so migrations carry history.
		if i%2 == 0 {
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
		}
	}
	before := make(map[string]string, len(paths))
	ownersBefore := make(map[string]string, len(paths))
	for _, p := range paths {
		before[p] = historyDigest(t, c, p)
		ownersBefore[p], _ = c.Owner(p)
	}

	if err := c.AddServer(ServerConfig{Name: "fs3", OpenWait: 300 * time.Millisecond}); err != nil {
		t.Fatalf("add server: %v", err)
	}

	rg := c.Router().Ring()
	moved := 0
	for _, p := range paths {
		owner, err := c.Owner(p)
		if err != nil {
			t.Fatalf("owner %s after join: %v", p, err)
		}
		if want := rg.Lookup(p); owner != want {
			t.Fatalf("%s owned by %s after join, ring says %s", p, owner, want)
		}
		if owner != ownersBefore[p] {
			// Consistent hashing: every move lands on the new member.
			if owner != "fs3" {
				t.Fatalf("%s moved between survivors %s→%s", p, ownersBefore[p], owner)
			}
			moved++
		}
		// Byte-identical histories after migration.
		if got := historyDigest(t, c, p); got != before[p] {
			t.Fatalf("history of %s changed across migration", p)
		}
	}
	if moved == 0 {
		t.Fatal("no path moved to the new member")
	}
	if got := c.Router().Metrics().Counter("ring.moves").Value(); got != int64(moved) {
		t.Fatalf("ring.moves = %d, want %d", got, moved)
	}
	// Post-join commits work wherever the path now lives.
	wf, err := sess.OpenWrite(docURL(t, c, "DLURLCOMPLETEWRITE", 1))
	if err != nil {
		t.Fatalf("post-join write open: %v", err)
	}
	if err := wf.WriteAll([]byte("post-join")); err != nil {
		t.Fatal(err)
	}
	if err := wf.Close(); err != nil {
		t.Fatalf("post-join commit: %v", err)
	}
}

func TestClusterRemoveServerDrains(t *testing.T) {
	c := newCluster(t, 3)
	paths := clusterPaths(18)
	for i, p := range paths {
		linkDoc(t, c, i, p, "v0 of "+p)
	}
	if err := c.RemoveServer("fs2"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if got := strings.Join(c.Members(), ","); got != "fs1,fs3" {
		t.Fatalf("members after remove: %s", got)
	}
	sess := c.NewSession(bob)
	for i, p := range paths {
		owner, err := c.Owner(p)
		if err != nil {
			t.Fatalf("owner %s: %v", p, err)
		}
		if owner == "fs2" {
			t.Fatalf("%s still routed to removed member", p)
		}
		f, err := sess.OpenRead(docURL(t, c, "DLURLCOMPLETE", i))
		if err != nil {
			t.Fatalf("read %s after drain: %v", p, err)
		}
		data, _ := f.ReadAll()
		f.Close()
		if string(data) != "v0 of "+p {
			t.Fatalf("%s content after drain = %q", p, data)
		}
	}
}

// TestClusterFailedMoveLeavesTheSourceServing: a move whose destination step
// fails — here the promote's install, after the history and the replica row
// reached the destination — leaves the source the owner, serving reads and
// commits, and the destination holding nothing of the path: no history, no
// replica row, no link row.
func TestClusterFailedMoveLeavesTheSourceServing(t *testing.T) {
	c := newCluster(t, 2)
	p := clusterPaths(1)[0]
	linkDoc(t, c, 0, p, "v0 of "+p)
	srcID, _ := c.Owner(p)
	src, _ := c.Member(srcID)
	var dst *FileServer
	for _, id := range c.Members() {
		if id != srcID {
			dst, _ = c.Member(id)
		}
	}
	// A file where the path's parent directory should go.
	if err := dst.Phys.WriteFile("/c", []byte("in the way")); err != nil {
		t.Fatal(err)
	}
	moves := c.Router().Metrics().Counter("ring.moves").Value()
	if err := c.migratePath(src, dst, p); err == nil {
		t.Fatal("move onto a destination that cannot install the file succeeded")
	}
	if owner, _ := c.Owner(p); owner != srcID || !src.DLFM.IsLinked(p) {
		t.Fatalf("failed move changed the owner to %s (source linked %v)", owner, src.DLFM.IsLinked(p))
	}
	if dst.DLFM.IsLinked(p) || dst.DLFM.ReplicaVersion(p) != -1 || len(dst.Archive.Versions(c.Authority(), p)) != 0 {
		t.Fatalf("destination keeps: linked %v, replica row %d, %d versions",
			dst.DLFM.IsLinked(p), dst.DLFM.ReplicaVersion(p), len(dst.Archive.Versions(c.Authority(), p)))
	}
	if got := c.Router().Metrics().Counter("ring.moves").Value(); got != moves {
		t.Fatalf("a failed move counted in ring.moves (%d → %d)", moves, got)
	}
	if err := commitUpdate(t, c, 0, "v1 of "+p); err != nil {
		t.Fatalf("commit after the failed move: %v", err)
	}
	f, err := c.NewSession(bob).OpenRead(docURL(t, c, "DLURLCOMPLETE", 0))
	if err != nil {
		t.Fatalf("read open after the failed move: %v", err)
	}
	data, _ := f.ReadAll()
	f.Close()
	if string(data) != "v1 of "+p {
		t.Fatalf("read after the failed move = %q", data)
	}

	// With the obstacle gone the move lands, history and all.
	if err := dst.Phys.Remove("/c", rootCred); err != nil {
		t.Fatal(err)
	}
	if err := c.migratePath(src, dst, p); err != nil {
		t.Fatalf("move after the obstacle went: %v", err)
	}
	if vs := dst.Archive.Versions(c.Authority(), p); len(vs) != 2 || !dst.DLFM.IsLinked(p) || src.DLFM.IsLinked(p) {
		t.Fatalf("after the move: %d versions on the destination, linked there %v, on the source %v",
			len(vs), dst.DLFM.IsLinked(p), src.DLFM.IsLinked(p))
	}
}

// TestClusterMigrateVsCommitRace runs concurrent update transactions against
// every path while a new member joins mid-stream. The invariant is the E21
// FAIL condition: no acked commit may be lost — after the dust settles each
// file's content is exactly its last successfully closed write.
func TestClusterMigrateVsCommitRace(t *testing.T) {
	c := newCluster(t, 2)
	paths := clusterPaths(12)
	for i, p := range paths {
		linkDoc(t, c, i, p, "seq -1")
	}
	var (
		mu        sync.Mutex
		lastAcked = make(map[string]int, len(paths))
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := c.NewSession(alice)
			for seq := 0; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				i := (seq*4 + w) % len(paths)
				p := paths[i]
				wf, err := sess.OpenWrite(docURL(t, c, "DLURLCOMPLETEWRITE", i))
				if err != nil {
					continue // busy/draining: not acked, retry elsewhere
				}
				mu.Lock()
				next := lastAcked[p] + 1
				mu.Unlock()
				if err := wf.WriteAll([]byte(fmt.Sprintf("path %s seq %d", p, next))); err != nil {
					wf.Abort()
					continue
				}
				if err := wf.Close(); err != nil {
					continue // commit failed: rolled back, not acked
				}
				mu.Lock()
				if next > lastAcked[p] {
					lastAcked[p] = next
				}
				mu.Unlock()
			}
		}(w)
	}
	time.Sleep(30 * time.Millisecond) // let commits flow before the join
	if err := c.AddServer(ServerConfig{Name: "fs3", OpenWait: 300 * time.Millisecond}); err != nil {
		close(stop)
		wg.Wait()
		t.Fatalf("mid-stream join: %v", err)
	}
	time.Sleep(30 * time.Millisecond) // and after it
	close(stop)
	wg.Wait()

	sess := c.NewSession(bob)
	for i, p := range paths {
		f, err := sess.OpenRead(docURL(t, c, "DLURLCOMPLETE", i))
		if err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		data, _ := f.ReadAll()
		f.Close()
		mu.Lock()
		want := fmt.Sprintf("path %s seq %d", p, lastAcked[p])
		mu.Unlock()
		if lastAcked[p] == 0 {
			continue // never successfully written
		}
		if string(data) != want {
			t.Fatalf("lost acked commit on %s: content %q, want %q", p, data, want)
		}
	}
}

// TestClusterFailAbsorbDead kills a member and recovers its namespace under
// the survivors from the durable planes (repository WAL + archive dir).
func TestClusterFailAbsorbDead(t *testing.T) {
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
	c.DB().MustExec(`CREATE TABLE docs (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES)`)
	paths := clusterPaths(10)
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
	if onFs2 == 0 {
		t.Skip("hash placed no test path on fs2")
	}

	if err := c.FailServer("fs2"); err != nil {
		t.Fatalf("fail: %v", err)
	}
	// fs2's paths are dark while it is down: a lookup, a session open, a
	// link and a restore that need fs2 fail typed.
	for i, p := range paths {
		if c.Router().Ring().Lookup(p) != "fs2" {
			continue
		}
		if _, err := c.Owner(p); !errors.Is(err, ErrMemberDown) {
			t.Fatalf("%s resolves while its owner is dead: %v", p, err)
		}
		if _, err := sess.OpenRead(docURL(t, c, "DLURLCOMPLETE", i)); !errors.Is(err, ErrMemberDown) {
			t.Fatalf("open of %s while its owner is dead: %v, want ErrMemberDown", p, err)
		}
		break
	}
	for i := 0; ; i++ {
		p := fmt.Sprintf("/c/new%d.bin", i)
		if c.Router().Ring().Lookup(p) != "fs2" {
			continue
		}
		if _, err := c.DB().Exec(fmt.Sprintf(`INSERT INTO docs (id, doc) VALUES (99, DLVALUE('%s'))`, c.URL(p))); !errors.Is(err, ErrMemberDown) {
			t.Fatalf("link of %s placed on a dead member: %v, want ErrMemberDown", p, err)
		}
		break
	}
	if err := c.Engine.RestoreToState(c.Engine.StateID()); !errors.Is(err, ErrMemberDown) {
		t.Fatalf("restore with a member dead: %v, want ErrMemberDown", err)
	}
	if err := c.AbsorbDead("fs2"); err != nil {
		t.Fatalf("absorb: %v", err)
	}
	if got := strings.Join(c.Members(), ","); got != "fs1" {
		t.Fatalf("members after absorb: %s", got)
	}
	for i, p := range paths {
		owner, err := c.Owner(p)
		if err != nil || owner != "fs1" {
			t.Fatalf("%s owner after absorb = %s, %v", p, owner, err)
		}
		f, err := sess.OpenRead(docURL(t, c, "DLURLCOMPLETE", i))
		if err != nil {
			t.Fatalf("read %s after absorb: %v", p, err)
		}
		data, _ := f.ReadAll()
		f.Close()
		if string(data) != "v1 of "+p {
			t.Fatalf("%s after absorb = %q, want committed v1", p, data)
		}
		m, _ := c.Member("fs1")
		if vs := m.Archive.Versions(c.Authority(), p); len(vs) != 2 {
			t.Fatalf("%s history after absorb: %d versions, want 2", p, len(vs))
		}
	}
}

// TestClusterDBFollowsARestore: DB is the database the engine serves now. A
// restore replaces the host database and closes the old one; a handle kept
// from before used to fail every statement with "wal: log closed".
func TestClusterDBFollowsARestore(t *testing.T) {
	c := newCluster(t, 2)
	p := clusterPaths(1)[0]
	linkDoc(t, c, 0, p, "v0 of "+p)
	state := c.Engine.StateID()
	if _, err := c.DB().Exec(`INSERT INTO docs (id) VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	if err := c.Engine.RestoreToState(state); err != nil {
		t.Fatalf("restore: %v", err)
	}
	rows, err := c.DB().Query(`SELECT id FROM docs`)
	if err != nil {
		t.Fatalf("query after the restore: %v", err)
	}
	if len(rows.Data) != 1 || rows.Data[0][0].I != 0 {
		t.Fatalf("docs after the restore: %v, want only doc 0", rows.Data)
	}
	if _, err := c.DB().Exec(`INSERT INTO docs (id) VALUES (2)`); err != nil {
		t.Fatalf("insert after the restore: %v", err)
	}
}
