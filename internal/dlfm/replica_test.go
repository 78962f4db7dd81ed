package dlfm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"datalinks/internal/archive"
	"datalinks/internal/datalink"
	"datalinks/internal/extent"
	"datalinks/internal/fs"
	"datalinks/internal/sqlmini"
)

// shipTo applies the owner's current state of path to a replica peer, the way
// the cluster shipper does at the commit barrier.
func shipTo(t *testing.T, src *Server, srcPhys *fs.FS, dst *Server, path string) {
	t.Helper()
	meta, ver, mtime, err := src.FileMeta(path)
	if err != nil {
		t.Fatalf("file meta: %v", err)
	}
	snap, err := srcPhys.SnapshotFile(path)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	defer snap.Release()
	if err := dst.ApplyReplicaCommit(path, ver, src.cfg.Host.StateID(), snap, mtime, meta); err != nil {
		t.Fatalf("apply replica commit v%d: %v", ver, err)
	}
}

func TestReplicaApplyAndRow(t *testing.T) {
	src, srcPhys, _ := newServer(t)
	linkCommitted(t, src, "/d/f.bin", "rfd")
	dst, _ := newShardPeer(t)

	shipTo(t, src, srcPhys, dst, "/d/f.bin")
	if got := dst.ReplicaVersion("/d/f.bin"); got != 0 {
		t.Fatalf("replica version = %d, want 0", got)
	}
	if paths := dst.ReplicaPaths(); len(paths) != 1 || paths[0] != "/d/f.bin" {
		t.Fatalf("replica paths = %v", paths)
	}
	// Replicas are invisible to the linked-file namespace.
	if dst.IsLinked("/d/f.bin") {
		t.Fatal("replica shows as linked")
	}
	if len(dst.LinkedPaths()) != 0 {
		t.Fatal("replica in LinkedPaths")
	}
	// The replicated history serves.
	e, err := dst.cfg.Archive.Latest("fs1", "/d/f.bin")
	if err != nil || string(bytesOf(t, e)) != "v0" {
		t.Fatalf("replica archive content: %q, %v", bytesOf(t, e), err)
	}
	// Idempotent re-ship (the lost-ack retry) is a clean no-op.
	shipTo(t, src, srcPhys, dst, "/d/f.bin")
	if got := dst.ReplicaVersion("/d/f.bin"); got != 0 {
		t.Fatalf("replica version after re-ship = %d, want 0", got)
	}
}

func TestReplicaLagDetected(t *testing.T) {
	src, srcPhys, _ := newServer(t)
	linkCommitted(t, src, "/d/f.bin", "rfd")
	dst, _ := newShardPeer(t)
	meta, _, mtime, err := src.FileMeta("/d/f.bin")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := srcPhys.SnapshotFile("/d/f.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	// Frame v2 arriving at a replica that holds nothing: lag, not apply.
	if err := dst.ApplyReplicaCommit("/d/f.bin", 2, 1, snap, mtime, meta); !errors.Is(err, ErrReplicaLag) {
		t.Fatalf("gapped frame: %v, want ErrReplicaLag", err)
	}
	if dst.ReplicaVersion("/d/f.bin") != -1 {
		t.Fatal("lagged frame advanced the row")
	}
}

func TestReplicaApplyRejectsOwnedPath(t *testing.T) {
	src, srcPhys, _ := newServer(t)
	linkCommitted(t, src, "/d/f.bin", "rfd")
	meta, ver, mtime, _ := src.FileMeta("/d/f.bin")
	snap, err := srcPhys.SnapshotFile("/d/f.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	// A server must never hold a replica of a path it owns — that frame is a
	// routing bug, not a state to absorb.
	if err := src.ApplyReplicaCommit("/d/f.bin", ver, 1, snap, mtime, meta); err == nil {
		t.Fatal("replica apply over an owned path succeeded")
	}
}

func TestReplicaPromoteServes(t *testing.T) {
	src, srcPhys, _ := newServer(t)
	linkCommitted(t, src, "/d/f.bin", "rfd")
	// Commit an update so the replica carries a multi-version history.
	id := openWrite(t, src, "/d/f.bin", owner)
	srcPhys.WriteFile("/d/f.bin", []byte("v1"))
	if resp := closeFile(t, src, srcPhys, "/d/f.bin", id); !resp.OK {
		t.Fatalf("close: %+v", resp)
	}
	src.WaitArchives()

	dst, dstPhys := newShardPeer(t)
	// Replica histories build version by version, as the shipper delivers.
	if err := copyHistory(src, dst, "/d/f.bin"); err != nil {
		t.Fatal(err)
	}
	meta, ver, mtime, err := src.FileMeta("/d/f.bin")
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.EnsureReplicaRow("/d/f.bin", ver, mtime, meta); err != nil {
		t.Fatal(err)
	}

	if err := dst.PromoteReplica("/d/f.bin"); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if !dst.IsLinked("/d/f.bin") {
		t.Fatal("promoted path not linked")
	}
	if len(dst.ReplicaPaths()) != 0 {
		t.Fatal("replica row survived promotion")
	}
	data, err := dstPhys.ReadFile("/d/f.bin")
	if err != nil || string(data) != "v1" {
		t.Fatalf("promoted content = %q, %v", data, err)
	}
	// At-rest protection and mtime match the owner's (promotion is a shard
	// import, not a fresh link).
	ino, _ := dstPhys.Lookup("/d/f.bin")
	attr, _ := dstPhys.Getattr(ino)
	if attr.Mode&0o222 != 0 {
		t.Fatalf("promoted rfd file writable: %o", attr.Mode)
	}
	// Version numbering continues where the owner stopped.
	id = openWrite(t, dst, "/d/f.bin", owner)
	dstPhys.WriteFile("/d/f.bin", []byte("v2"))
	if resp := closeFile(t, dst, dstPhys, "/d/f.bin", id); !resp.OK {
		t.Fatalf("post-promotion close: %+v", resp)
	}
	dst.WaitArchives()
	vs := dst.cfg.Archive.Versions("fs1", "/d/f.bin")
	if len(vs) != 3 || string(bytesOf(t, vs[2])) != "v2" {
		t.Fatalf("post-promotion versions = %d", len(vs))
	}
}

func TestReplicaPromoteWithoutReplica(t *testing.T) {
	dst, _ := newShardPeer(t)
	if err := dst.PromoteReplica("/d/ghost.bin"); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("promote without replica: %v, want ErrNoReplica", err)
	}
}

func TestReplicaUnlinkDropsEverything(t *testing.T) {
	src, srcPhys, _ := newServer(t)
	linkCommitted(t, src, "/d/f.bin", "rfd")
	dst, _ := newShardPeer(t)
	shipTo(t, src, srcPhys, dst, "/d/f.bin")

	if err := dst.ApplyReplicaUnlink("/d/f.bin"); err != nil {
		t.Fatalf("replica unlink: %v", err)
	}
	if len(dst.ReplicaPaths()) != 0 {
		t.Fatal("replica row survived unlink")
	}
	if len(dst.cfg.Archive.Versions("fs1", "/d/f.bin")) != 0 {
		t.Fatal("replica history survived unlink")
	}
	// Idempotent — the unlink retry delivers twice.
	if err := dst.ApplyReplicaUnlink("/d/f.bin"); err != nil {
		t.Fatalf("duplicate replica unlink: %v", err)
	}
}

// TestReplicaReadFailsOnAMissingBlob: a replica whose catalog lists a version
// it cannot materialize — the manifest-without-its-blob state E23 finds —
// must fail the read. It used to serve an empty file with a nil error.
func TestReplicaReadFailsOnAMissingBlob(t *testing.T) {
	src, srcPhys, _ := newServer(t)
	body := bytes.Repeat([]byte("replicated "), 2*extent.ChunkSize/11)
	seedFile(t, srcPhys, "/d/f.bin", string(body))
	linkCommitted(t, src, "/d/f.bin", "rfd")

	// A disk-tier replica that keeps nothing resident, one file per blob.
	tier := archive.TierConfig{Dir: t.TempDir(), MemoryBudget: 1, PackThreshold: -1}
	arch, err := archive.NewTiered(0, nil, tier)
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	dst, err := New(Config{Name: "fs1", Phys: fs.New(), Archive: arch, Host: newFakeHost(), TokenKey: []byte("k"), OpenWait: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	shipTo(t, src, srcPhys, dst, "/d/f.bin")
	if data, err := dst.ReadReplica("/d/f.bin"); err != nil || !bytes.Equal(data, body) {
		t.Fatalf("replica read before the loss: %d bytes, %v", len(data), err)
	}

	blobDirs, err := filepath.Glob(filepath.Join(tier.Dir, "[0-9a-f][0-9a-f]"))
	if err != nil || len(blobDirs) == 0 {
		t.Fatalf("no loose blobs under %s (%v)", tier.Dir, err)
	}
	for _, d := range blobDirs {
		if err := os.RemoveAll(d); err != nil {
			t.Fatal(err)
		}
	}
	data, err := dst.ReadReplica("/d/f.bin")
	if err == nil {
		t.Fatalf("replica read with every blob gone returned %d bytes and no error", len(data))
	}
	if !strings.Contains(err.Error(), "/d/f.bin") {
		t.Errorf("error does not name the path: %v", err)
	}
}

func TestReplicaRead(t *testing.T) {
	src, srcPhys, _ := newServer(t)
	linkCommitted(t, src, "/d/f.bin", "rfd")
	dst, _ := newShardPeer(t)
	shipTo(t, src, srcPhys, dst, "/d/f.bin")
	data, err := dst.ReadReplica("/d/f.bin")
	if err != nil || string(data) != "v0" {
		t.Fatalf("replica read = %q, %v", data, err)
	}
	if _, err := dst.ReadReplica("/d/other.bin"); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("read of missing replica: %v, want ErrNoReplica", err)
	}
}

// fakeReplicator records ships and can fail them — the dlfm-level view of the
// cluster shipper.
type fakeReplicator struct {
	ships   []int64
	unlinks []string
	fail    error
}

func (f *fakeReplicator) ShipCommit(_ context.Context, path string, ver int64, _ uint64, snap *extent.Snapshot, _ int64, _ time.Time, _ ReplicaMeta) error {
	if f.fail != nil {
		return f.fail
	}
	f.ships = append(f.ships, ver)
	return nil
}

func (f *fakeReplicator) ShipUnlink(path string) error {
	f.unlinks = append(f.unlinks, path)
	return f.fail
}

func TestCommitShipsSynchronously(t *testing.T) {
	srv, phys, _ := newServer(t)
	fr := &fakeReplicator{}
	srv.SetReplicator(fr)
	linkCommitted(t, srv, "/d/f.bin", "rfd")
	if len(fr.ships) != 1 || fr.ships[0] != 0 {
		t.Fatalf("link ships = %v, want [0]", fr.ships)
	}
	id := openWrite(t, srv, "/d/f.bin", owner)
	phys.WriteFile("/d/f.bin", []byte("v1"))
	if resp := closeFile(t, srv, phys, "/d/f.bin", id); !resp.OK {
		t.Fatalf("close: %+v", resp)
	}
	if len(fr.ships) != 2 || fr.ships[1] != 1 {
		t.Fatalf("ships after commit = %v, want [0 1]", fr.ships)
	}
}

func TestQuorumFailureRejectsWithoutRollback(t *testing.T) {
	srv, phys, _ := newServer(t)
	linkCommitted(t, srv, "/d/f.bin", "rfd")
	fr := &fakeReplicator{fail: errors.New("replicas unreachable")}
	srv.SetReplicator(fr)

	id := openWrite(t, srv, "/d/f.bin", owner)
	phys.WriteFile("/d/f.bin", []byte("v1"))
	resp := closeFile(t, srv, phys, "/d/f.bin", id)
	// The close is rejected — the writer learns the version is
	// under-replicated...
	if resp.OK {
		t.Fatal("under-replicated close acked")
	}
	if !strings.Contains(resp.Err, "under-replicated") {
		t.Fatalf("close err = %q, want under-replicated", resp.Err)
	}
	// ...but the commit is NOT rolled back: the host transaction already
	// committed, the content stays, and the version archives.
	data, _ := phys.ReadFile("/d/f.bin")
	if string(data) != "v1" {
		t.Fatalf("content rolled back to %q after quorum failure", data)
	}
	srv.WaitArchives()
	vs := srv.cfg.Archive.Versions("fs1", "/d/f.bin")
	if len(vs) != 2 || string(bytesOf(t, vs[1])) != "v1" {
		t.Fatalf("v1 not archived after quorum failure: %d versions", len(vs))
	}
	// With the replicas back, the next update ships normally.
	fr.fail = nil
	id = openWrite(t, srv, "/d/f.bin", owner)
	phys.WriteFile("/d/f.bin", []byte("v2"))
	if resp := closeFile(t, srv, phys, "/d/f.bin", id); !resp.OK {
		t.Fatalf("recovered close: %+v", resp)
	}
	if len(fr.ships) != 1 || fr.ships[0] != 2 {
		t.Fatalf("recovered ships = %v, want [2]", fr.ships)
	}
}

func TestUnlinkShips(t *testing.T) {
	srv, _, _ := newServer(t)
	fr := &fakeReplicator{}
	srv.SetReplicator(fr)
	linkCommitted(t, srv, "/d/f.bin", "rfd")

	const hostTxn = 91
	if err := srv.UnlinkFile(hostTxn, "/d/f.bin"); err != nil {
		t.Fatal(err)
	}
	srv.PrepareXRM(hostTxn)
	srv.CommitXRM(hostTxn)
	if len(fr.unlinks) != 1 || fr.unlinks[0] != "/d/f.bin" {
		t.Fatalf("unlink ships = %v", fr.unlinks)
	}
}

// TestReplicaApplyAllocsDoNotGrowWithHistory: "what is the last version?" is
// asked on every replicated commit, for the life of the file — applying a
// commit onto a path with 1 000 versions allocates what applying one onto a
// path with 10 does, not a copy of the version list.
func TestReplicaApplyAllocsDoNotGrowWithHistory(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation comparisons are not meaningful under the race detector")
	}
	dst, _ := newShardPeer(t)
	meta := ReplicaMeta{Mode: datalink.RFD, Recovery: true}
	mtime := time.Unix(1_700_000_000, 0)
	ver := int64(0)
	apply := func() {
		snap := extent.FromBytes([]byte(fmt.Sprintf("content of version %06d", ver)))
		defer snap.Release()
		if err := dst.ApplyReplicaCommit("/d/f.bin", ver, uint64(ver+1), snap, mtime, meta); err != nil {
			t.Fatalf("apply v%d: %v", ver, err)
		}
		ver++
	}
	// medianApply is the median cost of one apply over the next few versions:
	// the slices that grow by doubling (archive entries, the repository log)
	// spike single applies, never most of them.
	medianApply := func() uint64 {
		costs := make([]uint64, 9)
		var before, after runtime.MemStats
		for i := range costs {
			runtime.ReadMemStats(&before)
			apply()
			runtime.ReadMemStats(&after)
			costs[i] = after.TotalAlloc - before.TotalAlloc
		}
		sort.Slice(costs, func(i, j int) bool { return costs[i] < costs[j] })
		return costs[len(costs)/2]
	}
	for ver < 10 {
		apply()
	}
	short := medianApply()
	for ver < 1000 {
		apply()
	}
	long := medianApply()
	if got := dst.ReplicaVersion("/d/f.bin"); got != ver-1 {
		t.Fatalf("replica version = %d, want %d", got, ver-1)
	}
	if long > short+short/10 {
		t.Fatalf("an apply onto 1 000 versions allocates %d B, onto 10 versions %d B", long, short)
	}
}

// TestEnsureReplicaRowConcurrentUpserts: the synchronous ship and a catch-up
// upsert one path's row at once. No upsert fails (at the parent one of them
// ends in "duplicate primary key"), the row never moves backwards, and once it
// exists no scan of ReplicaPaths misses it — a Failover that scanned in such
// a gap would skip the path and the prune pass drop its only copy.
func TestEnsureReplicaRowConcurrentUpserts(t *testing.T) {
	dst, _ := newShardPeer(t)
	const path, versions = "/d/f.bin", 200
	meta := ReplicaMeta{Mode: datalink.RFD, Recovery: true}
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for v := int64(0); v <= versions; v++ {
				if err := dst.EnsureReplicaRow(path, v, time.Unix(v, 0), meta); err != nil {
					t.Errorf("upsert v%d: %v", v, err)
					return
				}
			}
		}()
	}
	stop, scanned := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scanned)
		seen, last := false, int64(-1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			present := len(dst.ReplicaPaths()) == 1
			if seen && !present {
				t.Error("the row was absent from ReplicaPaths after it had been present")
				return
			}
			if v := dst.ReplicaVersion(path); v < last {
				t.Errorf("row moved backwards: v%d after v%d", v, last)
				return
			} else if present {
				seen, last = true, v
			}
		}
	}()
	writers.Wait()
	close(stop)
	<-scanned
	if got := dst.ReplicaVersion(path); got != versions {
		t.Fatalf("final row at v%d, want v%d", got, versions)
	}
}

// TestKilledMemberAnswersAtOnce: whoever waits on a member when it is killed
// — behind a repository lock whose holder died with the WAL, or parked for a
// write-open behind a writer that will never close — gets an error at once,
// not after the whole OpenWait.
func TestKilledMemberAnswersAtOnce(t *testing.T) {
	phys := fs.New()
	phys.MkdirAll("/d", fs.Cred{UID: fs.Root}, 0o777)
	seedFile(t, phys, "/d/f.bin", "v0")
	srv, err := New(Config{Name: "fs1", Phys: phys, Archive: archive.New(0, nil), Host: newFakeHost(), TokenKey: []byte("k"), OpenWait: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	linkCommitted(t, srv, "/d/f.bin", "rfd")
	openWrite(t, srv, "/d/f.bin", owner)
	if err := srv.EnsureReplicaRow("/r", 0, time.Unix(0, 0), ReplicaMeta{Mode: datalink.RFD}); err != nil {
		t.Fatal(err)
	}
	holder := srv.repo.Begin()
	if _, err := holder.Exec(`UPDATE dlfm_replicas SET cur_version = 0 WHERE path = ?`, sqlmini.Str("/r")); err != nil {
		t.Fatal(err)
	}

	lockWaiter, parkedOpen := make(chan error, 1), make(chan error, 1)
	go func() { lockWaiter <- srv.EnsureReplicaRow("/r", 1, time.Unix(1, 0), ReplicaMeta{Mode: datalink.RFD}) }()
	go func() {
		_, err := writeOpenErr(srv, "/d/f.bin", owner)
		parkedOpen <- err
	}()
	select {
	case err := <-lockWaiter:
		t.Fatalf("lock waiter did not wait: %v", err)
	case err := <-parkedOpen:
		t.Fatalf("second write-open did not wait: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	srv.Kill()
	killed := time.Now()
	if err := <-lockWaiter; !errors.Is(err, sqlmini.ErrLockManagerClosed) {
		t.Errorf("lock waiter: %v, want ErrLockManagerClosed", err)
	}
	if err := <-parkedOpen; err == nil {
		t.Error("write-open parked on a killed member succeeded")
	}
	if d := time.Since(killed); d > 100*time.Millisecond {
		t.Errorf("waiters answered %v after the kill, want within 100ms", d)
	}
}
