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

// ship brings a replica peer up to the owner's current version of path the
// way the cluster shipper does: one ImportReplica from the owner's archive,
// with the owner's promotion identity.
func ship(src, dst *Server, path string) (imported int, err error) {
	meta, ver, mtime, err := src.FileMeta(path)
	if err != nil {
		return 0, err
	}
	return dst.ImportReplica(path, src.cfg.Archive, ver, mtime, meta)
}

// shipTo is ship, failing the test on an error.
func shipTo(t *testing.T, src, dst *Server, path string) {
	t.Helper()
	if _, err := ship(src, dst, path); err != nil {
		t.Fatalf("ship %s: %v", path, err)
	}
}

// commitContent commits one new version of a linked path on srv through a
// write open.
func commitContent(t *testing.T, srv *Server, phys *fs.FS, path, content string) {
	t.Helper()
	id := openWrite(t, srv, path, owner)
	phys.WriteFile(path, []byte(content))
	if resp := closeFile(t, srv, phys, path, id); !resp.OK {
		t.Fatalf("close: %+v", resp)
	}
}

func TestReplicaImportAndRow(t *testing.T) {
	src, _, _ := newServer(t)
	linkCommitted(t, src, "/d/f.bin", "rfd")
	dst, _ := newShardPeer(t)

	shipTo(t, src, dst, "/d/f.bin")
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
	if n, err := ship(src, dst, "/d/f.bin"); err != nil || n != 0 {
		t.Fatalf("re-ship imported %d versions: %v", n, err)
	}
	if got := dst.ReplicaVersion("/d/f.bin"); got != 0 {
		t.Fatalf("replica version after re-ship = %d, want 0", got)
	}
}

// countingSource is an owner archive that counts the blobs a replica
// fetches from it.
type countingSource struct {
	*archive.Store
	fetched int
}

func (c *countingSource) FetchBlob(h extent.Hash, dst []byte) ([]byte, error) {
	c.fetched++
	return c.Store.FetchBlob(h, dst)
}

// TestReplicaImportHealsAGapOrADivergence: a ship names the replica's newest
// version by identity. A replica that missed versions gets them all in the
// ship; one whose newest version is another than the owner's of that number
// — here a v1 the owner rolled back, under the same number and state id —
// gets the owner's whole history instead, over its dropped copy, and
// re-fetches no blob it still holds.
func TestReplicaImportHealsAGapOrADivergence(t *testing.T) {
	const path = "/d/f.bin"
	big := func(tag string) string { return tag + strings.Repeat(" padding", extent.ChunkSize/4) }
	src, srcPhys, _ := newServer(t)
	seedFile(t, srcPhys, path, big("v0"))
	linkCommitted(t, src, path, "rfd")
	dst, _ := newShardPeer(t)
	shipTo(t, src, dst, path)

	// A gap: the replica missed v1 and v2.
	commitContent(t, src, srcPhys, path, big("v1"))
	commitContent(t, src, srcPhys, path, big("v2"))
	if n, err := ship(src, dst, path); err != nil || n != 2 {
		t.Fatalf("ship over a gap imported %d versions (%v), want 2", n, err)
	}
	if got := dst.ReplicaVersion(path); got != 2 {
		t.Fatalf("replica row at v%d after the gap healed, want 2", got)
	}

	// A divergence: the replica's v3 is not the owner's v3.
	v3 := "v3" + strings.Repeat(" owner", extent.ChunkSize/4)
	commitContent(t, src, srcPhys, path, v3)
	owned := src.cfg.Archive.Versions("fs1", path)
	if err := dst.cfg.Archive.Put("fs1", path, 3, owned[3].StateID, []byte("a v3 the owner rolled back")); err != nil {
		t.Fatal(err)
	}
	cs := &countingSource{Store: src.cfg.Archive}
	meta, ver, mtime, err := src.FileMeta(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := dst.ImportReplica(path, cs, ver, mtime, meta)
	if err != nil || n != 4 {
		t.Fatalf("ship over a diverged v3 imported %d versions (%v), want the whole history of 4", n, err)
	}
	got := dst.cfg.Archive.Versions("fs1", path)
	if len(got) != len(owned) {
		t.Fatalf("replica holds %d versions, owner %d", len(got), len(owned))
	}
	for i := range owned {
		if got[i].Version != owned[i].Version || got[i].StateID != owned[i].StateID || !got[i].Stored.Equal(owned[i].Stored) ||
			!bytes.Equal(bytesOf(t, got[i]), bytesOf(t, owned[i])) {
			t.Fatalf("replica v%d differs from the owner's", owned[i].Version)
		}
	}
	// v0..v2 were on the replica's device before the drop: only v3's
	// changed chunk and its tail travel.
	if cs.fetched > 2 {
		t.Fatalf("the resync fetched %d blobs, want at most v3's 2", cs.fetched)
	}
}

func TestReplicaImportRejectsOwnedPath(t *testing.T) {
	src, _, _ := newServer(t)
	linkCommitted(t, src, "/d/f.bin", "rfd")
	meta, ver, mtime, _ := src.FileMeta("/d/f.bin")
	// A server must never hold a replica of a path it owns — that ship is a
	// routing bug, not a state to absorb.
	if _, err := src.ImportReplica("/d/f.bin", src.cfg.Archive, ver, mtime, meta); err == nil {
		t.Fatal("replica import over an owned path succeeded")
	}
}

func TestReplicaPromoteServes(t *testing.T) {
	src, srcPhys, _ := newServer(t)
	linkCommitted(t, src, "/d/f.bin", "rfd")
	// Commit an update so the replica carries a multi-version history.
	commitContent(t, src, srcPhys, "/d/f.bin", "v1")

	dst, dstPhys := newShardPeer(t)
	shipTo(t, src, dst, "/d/f.bin")

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
	commitContent(t, dst, dstPhys, "/d/f.bin", "v2")
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
	src, _, _ := newServer(t)
	linkCommitted(t, src, "/d/f.bin", "rfd")
	dst, _ := newShardPeer(t)
	shipTo(t, src, dst, "/d/f.bin")

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
// it cannot materialize — the manifest-without-its-blob state E23 finds — is
// promoted without a load (the install is deferred), so the first read of the
// promoted file must fail and name the path, not serve an empty file.
func TestReplicaReadFailsOnAMissingBlob(t *testing.T) {
	src, srcPhys, _ := newServer(t)
	body := bytes.Repeat([]byte("replicated "), 2*extent.ChunkSize/11)
	seedFile(t, srcPhys, "/d/f.bin", string(body))
	linkCommitted(t, src, "/d/f.bin", "rfd")

	// A disk-tier replica.
	tier := archive.TierConfig{Dir: t.TempDir()}
	arch, err := archive.NewTiered(0, nil, tier)
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	dstPhys := fs.New()
	dst := openServer(t, Config{Name: "fs1", Phys: dstPhys, Archive: arch, Host: newFakeHost(), TokenKey: []byte("k"), OpenWait: 100 * time.Millisecond})
	shipTo(t, src, dst, "/d/f.bin")
	if latest, err := arch.Latest("fs1", "/d/f.bin"); err != nil || !bytes.Equal(bytesOf(t, latest), body) {
		t.Fatalf("replica history before the loss: %v", err)
	}

	packs, err := filepath.Glob(filepath.Join(tier.Dir, "pack-*.pk"))
	if err != nil || len(packs) == 0 {
		t.Fatalf("no packs under %s (%v)", tier.Dir, err)
	}
	// Cut every pack to nothing: the store reads through handles it keeps
	// open, so the bytes must go, not just the names.
	for _, p := range packs {
		if err := os.Truncate(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := dst.PromoteReplica("/d/f.bin"); err != nil {
		t.Fatalf("promote: %v", err)
	}
	data, err := dstPhys.ReadFile("/d/f.bin")
	if err == nil {
		t.Fatalf("first read with every blob gone returned %d bytes and no error", len(data))
	}
	if !strings.Contains(err.Error(), "/d/f.bin") {
		t.Errorf("error does not name the path: %v", err)
	}
}

// fakeReplicator records ships and can fail them — the dlfm-level view of the
// cluster shipper.
type fakeReplicator struct {
	ships   []int64
	unlinks []string
	fail    error
}

func (f *fakeReplicator) ShipCommit(_ context.Context, path string, ver int64, _ time.Time, _ ReplicaMeta) error {
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

// TestReplicaImportAllocsDoNotGrowWithHistory: a ship asks the owner for
// the records after the replica's newest version, and the replica for its
// newest version, on every replicated commit for the life of the file —
// shipping a commit onto a path with 1 000 versions allocates what shipping
// one onto a path with 10 does, not a copy of the version list.
func TestReplicaImportAllocsDoNotGrowWithHistory(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation comparisons are not meaningful under the race detector")
	}
	src := newArchive(t)
	dst, _ := newShardPeer(t)
	meta := ReplicaMeta{Mode: datalink.RFD, Recovery: true}
	mtime := time.Unix(1_700_000_000, 0)
	ver := int64(0)
	// ship archives the next version on the owner, then ships it; only the
	// ship is measured.
	ship := func(measure func(func())) {
		if err := src.Put("fs1", "/d/f.bin", archive.Version(ver), uint64(ver+1), []byte(fmt.Sprintf("content of version %06d", ver))); err != nil {
			t.Fatalf("owner put v%d: %v", ver, err)
		}
		measure(func() {
			if _, err := dst.ImportReplica("/d/f.bin", src, ver, mtime, meta); err != nil {
				t.Fatalf("ship v%d: %v", ver, err)
			}
		})
		ver++
	}
	unmeasured := func(f func()) { f() }
	// medianShip is the median cost of one ship over the next few versions:
	// the slices that grow by doubling (archive entries, the repository log)
	// spike single ships, never most of them.
	medianShip := func() uint64 {
		costs := make([]uint64, 9)
		for i := range costs {
			ship(func(f func()) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				f()
				runtime.ReadMemStats(&after)
				costs[i] = after.TotalAlloc - before.TotalAlloc
			})
		}
		sort.Slice(costs, func(i, j int) bool { return costs[i] < costs[j] })
		return costs[len(costs)/2]
	}
	for ver < 10 {
		ship(unmeasured)
	}
	short := medianShip()
	for ver < 1000 {
		ship(unmeasured)
	}
	long := medianShip()
	if got := dst.ReplicaVersion("/d/f.bin"); got != ver-1 {
		t.Fatalf("replica version = %d, want %d", got, ver-1)
	}
	if long > short+short/10 {
		t.Fatalf("a ship onto 1 000 versions allocates %d B, onto 10 versions %d B", long, short)
	}
}

// TestEnsureReplicaRowConcurrentUpserts: a ship and an anti-entropy pass
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
	srv := openServer(t, Config{Name: "fs1", Phys: phys, Archive: newArchive(t), Host: newFakeHost(), TokenKey: []byte("k"), OpenWait: 10 * time.Second})
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

// TestReplicaImportCountsNoRestore: a ship asks both archives only for
// metadata and the blobs the replica lacks (Newest, ExportDelta, FetchBlob)
// — Latest would pay the device round trip and count a restore on every
// shipped version. Twenty ships, each re-shipped once as a lost-ack retry,
// leave both restore counts where they were.
func TestReplicaImportCountsNoRestore(t *testing.T) {
	src := newArchive(t)
	dst, _ := newShardPeer(t)
	meta := ReplicaMeta{Mode: datalink.RFD, Recovery: true}
	mtime := time.Unix(1_700_000_000, 0)
	var buf extent.Buffer
	buf.WriteAt(0, bytes.Repeat([]byte{1}, 2*extent.ChunkSize))
	_, srcBefore, _ := src.Stats()
	_, dstBefore, _ := dst.cfg.Archive.Stats()
	const ships = 20
	for ver := int64(0); ver < ships; ver++ {
		buf.WriteAt(ver*1000, []byte(fmt.Sprintf("version %d", ver)))
		snap := buf.Capture()
		if _, err := src.PutSnapshot("fs1", "/d/f.bin", archive.Version(ver), uint64(ver+1), snap); err != nil {
			t.Fatalf("owner put v%d: %v", ver, err)
		}
		snap.Release()
		for range 2 {
			if _, err := dst.ImportReplica("/d/f.bin", src, ver, mtime, meta); err != nil {
				t.Fatalf("ship v%d: %v", ver, err)
			}
		}
	}
	_, srcAfter, _ := src.Stats()
	_, dstAfter, _ := dst.cfg.Archive.Stats()
	if srcAfter != srcBefore || dstAfter != dstBefore {
		t.Fatalf("%d ships counted %d restores on the owner, %d on the replica", ships, srcAfter-srcBefore, dstAfter-dstBefore)
	}
	e, err := dst.cfg.Archive.Latest("fs1", "/d/f.bin")
	if err != nil || e.Version != ships-1 || !bytes.Equal(bytesOf(t, e), buf.Bytes()) {
		t.Fatalf("replica's newest version %d (%v) does not hold the last capture", e.Version, err)
	}
}

// TestReplicaImportRacingPromote: a ship that passed its not-linked check
// while its replica is promoted lands before the promote, never after it —
// after, it would leave the new owner a replica row beside its link row (the
// anti-entropy prune's to remove) and a history ahead of the version it
// serves.
func TestReplicaImportRacingPromote(t *testing.T) {
	const path = "/d/f.bin"
	for round := 0; round < 20; round++ {
		src, srcPhys, _ := newServer(t)
		linkCommitted(t, src, path, "rfd")
		dst, _ := newShardPeer(t)
		shipTo(t, src, dst, path)
		commitContent(t, src, srcPhys, path, "v1")
		shipped := make(chan error, 1)
		go func() {
			_, err := ship(src, dst, path)
			shipped <- err
		}()
		if err := dst.PromoteReplica(path); err != nil {
			t.Fatalf("round %d: promote: %v", round, err)
		}
		<-shipped
		_, ver, _, err := dst.FileMeta(path)
		newest, _ := dst.cfg.Archive.Newest("fs1", path)
		if err != nil || dst.ReplicaVersion(path) >= 0 || archive.Version(ver) != newest.Version {
			t.Fatalf("round %d: owner serves v%d (%v), history ends at v%d, replica row at %d",
				round, ver, err, newest.Version, dst.ReplicaVersion(path))
		}
	}
}
