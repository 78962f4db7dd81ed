package dlfm

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"datalinks/internal/datalink"
	"datalinks/internal/fs"
	"datalinks/internal/sqlmini"
	"datalinks/internal/token"
	"datalinks/internal/upcall"
	"datalinks/internal/wal"
)

// newShardPeer builds a second server sharing the authority name "fs1" (as
// cluster members do) with an empty filesystem — a migration destination.
func newShardPeer(t *testing.T) (*Server, *fs.FS) {
	t.Helper()
	phys := fs.New()
	srv := openServer(t, Config{
		Name:     "fs1",
		Phys:     phys,
		Archive:  newArchive(t),
		Host:     newFakeHost(),
		TokenKey: []byte("k"),
		OpenWait: 100 * time.Millisecond,
	})
	return srv, phys
}

// migrate runs the full per-path move between two servers, the way the
// cluster router does: freeze, ship the destination the frozen version (its
// history and replica row), promote it, evict the source.
func migrate(t *testing.T, src, dst *Server, path string) {
	t.Helper()
	if err := src.BeginExport(path); err != nil {
		t.Fatalf("begin export: %v", err)
	}
	_, err := ship(src, dst, path)
	if err == nil {
		err = dst.PromoteReplica(path)
	}
	if err != nil {
		src.AbortExport(path)
		t.Fatalf("hand %s over: %v", path, err)
	}
	if err := src.EndExport(path, true); err != nil {
		t.Fatalf("end export: %v", err)
	}
	if err := src.cfg.Archive.Drop("fs1", path); err != nil {
		t.Fatalf("src archive drop: %v", err)
	}
}

// TestShardImportOntoReplicaRetiresTheRow: a path migrating onto the member
// that holds its replica finds the history already there — the transfer moves
// nothing — and the promote turns the replica row into the link row, so the
// new owner is not left a replica of itself.
func TestShardImportOntoReplicaRetiresTheRow(t *testing.T) {
	src, _, _ := newServer(t)
	linkCommitted(t, src, "/d/f.bin", "rfd")
	dst, dstPhys := newShardPeer(t)
	shipTo(t, src, dst, "/d/f.bin")
	if dst.ReplicaVersion("/d/f.bin") < 0 {
		t.Fatal("destination holds no replica before the move")
	}
	stored := dst.cfg.Archive.Dedup().NewBytes

	migrate(t, src, dst, "/d/f.bin")

	if got := dst.cfg.Archive.Dedup().NewBytes; got != stored {
		t.Fatalf("move onto the replica holder stored %d new bytes", got-stored)
	}
	if !dst.IsLinked("/d/f.bin") || len(dst.ReplicaPaths()) != 0 {
		t.Fatalf("after the move: linked %v, replica rows %v", dst.IsLinked("/d/f.bin"), dst.ReplicaPaths())
	}
	if data, err := dstPhys.ReadFile("/d/f.bin"); err != nil || len(data) == 0 {
		t.Fatalf("destination content = %q, %v", data, err)
	}
}

func TestShardExportImportRoundTrip(t *testing.T) {
	src, srcPhys, _ := newServer(t)
	linkCommitted(t, src, "/d/f.bin", "rfd")
	id := openWrite(t, src, "/d/f.bin", owner)
	srcPhys.WriteFile("/d/f.bin", []byte("v1"))
	if resp := closeFile(t, src, srcPhys, "/d/f.bin", id); !resp.OK {
		t.Fatalf("close: %+v", resp)
	}
	srcIno, _ := srcPhys.Lookup("/d/f.bin")
	srcAttr, _ := srcPhys.Getattr(srcIno)

	dst, dstPhys := newShardPeer(t)
	migrate(t, src, dst, "/d/f.bin")

	// Source forgot the path entirely.
	if src.IsLinked("/d/f.bin") {
		t.Fatal("source still linked after evict")
	}
	if _, err := srcPhys.Lookup("/d/f.bin"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("source phys file survived evict: %v", err)
	}
	// Destination serves the link: row, bytes, mtime, and at-rest protection.
	if !dst.IsLinked("/d/f.bin") {
		t.Fatal("destination not linked after import")
	}
	data, err := dstPhys.ReadFile("/d/f.bin")
	if err != nil || string(data) != "v1" {
		t.Fatalf("destination content = %q, %v", data, err)
	}
	ino, _ := dstPhys.Lookup("/d/f.bin")
	attr, _ := dstPhys.Getattr(ino)
	if !attr.Mtime.Equal(srcAttr.Mtime) {
		t.Fatalf("mtime not preserved: %v vs %v", attr.Mtime, srcAttr.Mtime)
	}
	if attr.Mode&0o222 != 0 {
		t.Fatalf("rfd file writable after import: %o", attr.Mode)
	}
	// The migrated archive history serves every version, and src's Drop did
	// not damage it.
	vs := dst.cfg.Archive.Versions("fs1", "/d/f.bin")
	if len(vs) != 2 || string(bytesOf(t, vs[0])) != "v0" || string(bytesOf(t, vs[1])) != "v1" {
		t.Fatalf("migrated versions wrong: %d", len(vs))
	}

	// Version numbering continues where the source stopped: the next update on
	// the destination commits version 2, not version 1 again.
	id = openWrite(t, dst, "/d/f.bin", owner)
	dstPhys.WriteFile("/d/f.bin", []byte("v2"))
	if resp := closeFile(t, dst, dstPhys, "/d/f.bin", id); !resp.OK {
		t.Fatalf("post-migration close: %+v", resp)
	}
	vs = dst.cfg.Archive.Versions("fs1", "/d/f.bin")
	if len(vs) != 3 || string(bytesOf(t, vs[2])) != "v2" {
		t.Fatalf("post-migration versions = %d", len(vs))
	}
}

func TestShardImportPreservedMtimeMeansUnmodified(t *testing.T) {
	src, _, _ := newServer(t)
	linkCommitted(t, src, "/d/f.bin", "rfd")
	dst, dstPhys := newShardPeer(t)
	migrate(t, src, dst, "/d/f.bin")

	// A write open that touches nothing must close as "unmodified" — which
	// only works if the import preserved the source's mtime exactly (every
	// import step before SetMtime dirties it).
	id := openWrite(t, dst, "/d/f.bin", owner)
	if resp := closeFile(t, dst, dstPhys, "/d/f.bin", id); !resp.OK {
		t.Fatalf("no-op close: %+v", resp)
	}
	if got := len(dst.cfg.Archive.Versions("fs1", "/d/f.bin")); got != 1 {
		t.Fatalf("no-op close after migration minted a version: %d", got)
	}
}

func TestBeginExportDrainsAndTimesOut(t *testing.T) {
	src, srcPhys, _ := newServer(t)
	linkCommitted(t, src, "/d/f.bin", "rfd")
	id := openWrite(t, src, "/d/f.bin", owner)
	// A writer is in flight: the export drain must give up within OpenWait.
	if err := src.BeginExport("/d/f.bin"); !errors.Is(err, ErrFileBusy) {
		t.Fatalf("export with writer in flight = %v, want ErrFileBusy", err)
	}
	if resp := closeFile(t, src, srcPhys, "/d/f.bin", id); !resp.OK {
		t.Fatalf("close: %+v", resp)
	}
	// Writer gone: the drain succeeds now.
	if err := src.BeginExport("/d/f.bin"); err != nil {
		t.Fatalf("export after drain: %v", err)
	}
	src.AbortExport("/d/f.bin")
}

func TestExportFreezeBlocksOpensUntilAbort(t *testing.T) {
	src, _, _ := newServer(t)
	linkCommitted(t, src, "/d/f.bin", "rfd")
	if err := src.BeginExport("/d/f.bin"); err != nil {
		t.Fatalf("begin export: %v", err)
	}

	tok := src.Authority().Issue(token.Write, "/d/f.bin")
	if resp, err := src.Upcall(upcall.Request{Op: upcall.OpValidateToken, Path: "/d/f.bin", Token: tok, UID: int32(owner)}); err != nil || !resp.OK {
		t.Fatalf("validate: %+v %v", resp, err)
	}
	var opened atomic.Bool
	done := make(chan upcall.Response, 1)
	go func() {
		resp, _ := src.Upcall(upcall.Request{Op: upcall.OpWriteOpen, Path: "/d/f.bin", UID: int32(owner), Write: true})
		opened.Store(true)
		done <- resp
	}()
	// The open must park behind the freeze, not proceed.
	time.Sleep(20 * time.Millisecond)
	if opened.Load() {
		t.Fatal("open proceeded under export freeze")
	}
	src.AbortExport("/d/f.bin")
	resp := <-done
	if !resp.OK {
		t.Fatalf("open after aborted export: %+v", resp)
	}
}

func TestBeginExportNotLinked(t *testing.T) {
	src, _, _ := newServer(t)
	if err := src.BeginExport("/d/f.bin"); !errors.Is(err, ErrNotLinked) {
		t.Fatalf("export of unlinked path = %v, want ErrNotLinked", err)
	}
}

func TestEndExportEvictPurgesEverything(t *testing.T) {
	src, srcPhys, _ := newServer(t)
	linkCommitted(t, src, "/d/f.bin", "rdd")
	// Seed a token entry so eviction has something to purge.
	tok := src.Authority().Issue(token.Read, "/d/f.bin")
	if resp, _ := src.Upcall(upcall.Request{Op: upcall.OpValidateToken, Path: "/d/f.bin", Token: tok, UID: 9}); !resp.OK {
		t.Fatalf("validate: %+v", resp)
	}
	if err := src.BeginExport("/d/f.bin"); err != nil {
		t.Fatalf("begin export: %v", err)
	}
	if err := src.EndExport("/d/f.bin", true); err != nil {
		t.Fatalf("end export: %v", err)
	}
	if src.IsLinked("/d/f.bin") {
		t.Fatal("row survived evict")
	}
	if _, err := srcPhys.Lookup("/d/f.bin"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("phys file survived evict")
	}
	if src.TokenEntryCount() != 0 {
		t.Fatal("token entries survived evict")
	}
	// The path is open for business again (e.g. a fresh link of a new file).
	seedFile(t, srcPhys, "/d/f.bin", "new")
	linkCommitted(t, src, "/d/f.bin", "rfd")
	if !src.IsLinked("/d/f.bin") {
		t.Fatal("relink after evict failed")
	}
}

// TestPromoteReplicaRejectsLinkedPath: a member never promotes over a path it
// already serves, and the refusal leaves the local file and its replica row
// as they were.
func TestPromoteReplicaRejectsLinkedPath(t *testing.T) {
	src, _, _ := newServer(t)
	linkCommitted(t, src, "/d/f.bin", "rfd")
	dst, dstPhys := newShardPeer(t)
	shipTo(t, src, dst, "/d/f.bin")
	dstPhys.MkdirAll("/d", fs.Cred{UID: fs.Root}, 0o777)
	seedFile(t, dstPhys, "/d/f.bin", "local")
	if err := dst.cfg.Archive.Drop("fs1", "/d/f.bin"); err != nil {
		t.Fatal(err)
	}
	linkCommitted(t, dst, "/d/f.bin", "rfd")
	if err := dst.PromoteReplica("/d/f.bin"); !errors.Is(err, ErrAlreadyLinked) {
		t.Fatalf("promote over a linked path = %v, want ErrAlreadyLinked", err)
	}
	if data, err := dstPhys.ReadFile("/d/f.bin"); err != nil || string(data) != "local" {
		t.Fatalf("refused promote left %q, %v", data, err)
	}
	if dst.ReplicaVersion("/d/f.bin") != 0 {
		t.Fatal("refused promote retired the replica row")
	}
}

// TestShardMoveOfUnarchivedModeCarriesCurrentBytes: an RFF RECOVERY NO path
// keeps no history, and the file system may change it after link. A move
// archives the frozen file for the handover and drops that history again on
// both sides: the destination serves the current bytes with the source's
// owner, mode and mtime, and neither member keeps a history or a replica row.
// Neither an abandoned move nor one the source crashed in leaves a history
// that a later move would take for the current bytes.
func TestShardMoveOfUnarchivedModeCarriesCurrentBytes(t *testing.T) {
	const path = "/d/f.bin"
	src, srcPhys, _ := newServer(t)
	hostTxn := uint64(time.Now().UnixNano())
	if err := src.LinkFile(hostTxn, path, datalink.ColumnOptions{Mode: datalink.RFF}); err != nil {
		t.Fatal(err)
	}
	if err := src.PrepareXRM(hostTxn); err != nil {
		t.Fatal(err)
	}
	if err := src.CommitXRM(hostTxn); err != nil {
		t.Fatal(err)
	}
	if n := len(src.cfg.Archive.Versions("fs1", path)); n != 0 {
		t.Fatalf("RFF RECOVERY NO link archived %d versions", n)
	}
	// An abandoned move leaves no history behind.
	if err := src.BeginExport(path); err != nil {
		t.Fatal(err)
	}
	src.AbortExport(path)
	if n := len(src.cfg.Archive.Versions("fs1", path)); n != 0 {
		t.Fatalf("aborted move left %d versions", n)
	}
	// A move the source dies in does (its freeze archived the file), and
	// the restarted source must not hand that copy over.
	if err := src.BeginExport(path); err != nil {
		t.Fatal(err)
	}
	src.Kill()
	src, _ = reopen(t, src, src.cfg)

	// Through the native mount, as RFF allows.
	if err := srcPhys.WriteFile(path, []byte("changed after link")); err != nil {
		t.Fatal(err)
	}
	ino, _ := srcPhys.Lookup(path)
	mtime := time.Unix(1_000_000, 42)
	if err := srcPhys.SetMtime(ino, mtime); err != nil {
		t.Fatal(err)
	}
	srcAttr, _ := srcPhys.Getattr(ino)

	dst, dstPhys := newShardPeer(t)
	migrate(t, src, dst, path)
	dst.cfg.Archive.GCNow()

	if data, err := dstPhys.ReadFile(path); err != nil || string(data) != "changed after link" {
		t.Fatalf("destination content = %q, %v", data, err)
	}
	dino, _ := dstPhys.Lookup(path)
	attr, _ := dstPhys.Getattr(dino)
	if attr.UID != srcAttr.UID || attr.Mode != srcAttr.Mode || !attr.Mtime.Equal(mtime) {
		t.Fatalf("destination uid %d mode %o mtime %v; source had %d %o %v",
			attr.UID, attr.Mode, attr.Mtime, srcAttr.UID, srcAttr.Mode, mtime)
	}
	for name, m := range map[string]*Server{"source": src, "destination": dst} {
		if n := len(m.cfg.Archive.Versions("fs1", path)); n != 0 || len(m.ReplicaPaths()) != 0 {
			t.Fatalf("%s keeps %d versions and replica rows %v", name, n, m.ReplicaPaths())
		}
	}
	if !dst.IsLinked(path) || src.IsLinked(path) {
		t.Fatalf("after the move: linked on dst %v, on src %v", dst.IsLinked(path), src.IsLinked(path))
	}
}

// TestShardMoveOfFSWritableHistoryCarriesCurrentBytes: an RFF RECOVERY YES
// path keeps a history, but the file system controls its writes, so a write
// through the native mount changes the file without minting a version. The
// move archives the changed bytes as the next version, the destination serves
// them and numbers from there; an unchanged file moves without a new version.
func TestShardMoveOfFSWritableHistoryCarriesCurrentBytes(t *testing.T) {
	const path = "/d/f.bin"
	src, srcPhys, _ := newServer(t)
	hostTxn := uint64(time.Now().UnixNano())
	if err := src.LinkFile(hostTxn, path, datalink.ColumnOptions{Mode: datalink.RFF, Recovery: true}); err != nil {
		t.Fatal(err)
	}
	if err := src.PrepareXRM(hostTxn); err != nil {
		t.Fatal(err)
	}
	if err := src.CommitXRM(hostTxn); err != nil {
		t.Fatal(err)
	}
	if err := srcPhys.WriteFile(path, []byte("changed after link")); err != nil {
		t.Fatal(err)
	}

	dst, dstPhys := newShardPeer(t)
	migrate(t, src, dst, path)

	if data, err := dstPhys.ReadFile(path); err != nil || string(data) != "changed after link" {
		t.Fatalf("destination content = %q, %v", data, err)
	}
	if _, ver, _, err := dst.FileMeta(path); err != nil || ver != 1 {
		t.Fatalf("destination cur_version = %d, %v; want 1", ver, err)
	}
	if vs := dst.cfg.Archive.Versions("fs1", path); len(vs) != 2 || vs[1].Version != 1 {
		t.Fatalf("destination history %+v; want v0 and v1", vs)
	}

	// Nothing changed since: the move back adds no version.
	back, backPhys := newShardPeer(t)
	migrate(t, dst, back, path)
	if data, err := backPhys.ReadFile(path); err != nil || string(data) != "changed after link" {
		t.Fatalf("second destination content = %q, %v", data, err)
	}
	if n := len(back.cfg.Archive.Versions("fs1", path)); n != 2 {
		t.Fatalf("unchanged file moved with %d versions; want 2", n)
	}
}

// TestShardMoveArchivesTheVersionAFailedJobLost: a committed version whose
// archive put failed is still on the source's file (and in its
// pending-archive row). The move archives it under the commit's state id before the handover,
// so the destination serves it and numbers on from it.
func TestShardMoveArchivesTheVersionAFailedJobLost(t *testing.T) {
	const path = "/d/f.bin"
	src, srcPhys, host := newServer(t)
	linkCommitted(t, src, path, "rfd")
	id := openWrite(t, src, path, owner)
	srcPhys.WriteFile(path, []byte("v1"))
	if resp := closeFile(t, src, srcPhys, path, id); !resp.OK {
		t.Fatalf("close: %+v", resp)
	}
	// Undo the put as if it had failed: v1 leaves the history, and the
	// pending row a failed put writes goes in.
	vs := src.cfg.Archive.Versions("fs1", path)
	if len(vs) != 2 {
		t.Fatalf("%d versions before the move", len(vs))
	}
	if err := src.cfg.Archive.TruncateAfter("fs1", path, vs[0].StateID); err != nil {
		t.Fatal(err)
	}
	if _, err := src.repo.Exec(`INSERT INTO dlfm_pending_archive (path, version, state_id) VALUES (?, ?, ?)`,
		sqlmini.Str(path), sqlmini.Int(1), sqlmini.Int(int64(vs[1].StateID))); err != nil {
		t.Fatal(err)
	}
	host.state += 5

	dst, dstPhys := newShardPeer(t)
	migrate(t, src, dst, path)
	got := dst.cfg.Archive.Versions("fs1", path)
	if len(got) != 2 || string(bytesOf(t, got[1])) != "v1" || got[1].StateID != vs[1].StateID {
		t.Fatalf("destination history: %d versions, want v0 and v1 at state %d", len(got), vs[1].StateID)
	}
	if data, err := dstPhys.ReadFile(path); err != nil || string(data) != "v1" {
		t.Fatalf("destination content = %q, %v", data, err)
	}
}

// TestPromoteReplicaLoadsNothing: a promote installs the latest version
// deferred — it reads no byte of it — and the first read loads exactly that
// version, one load per chunk slot and one for the tail.
func TestPromoteReplicaLoadsNothing(t *testing.T) {
	const path = "/d/f.bin"
	src, srcPhys, _ := newServer(t)
	linkCommitted(t, src, path, "rfd")
	id := openWrite(t, src, path, owner)
	srcPhys.WriteFile(path, bytes.Repeat([]byte("version one "), 20000))
	if resp := closeFile(t, src, srcPhys, path, id); !resp.OK {
		t.Fatalf("close: %+v", resp)
	}

	dst, dstPhys := newShardPeer(t)
	shipTo(t, src, dst, path)
	loads := dstPhys.Stats.DeferredLoads.Load()
	if err := dst.PromoteReplica(path); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if n := dstPhys.Stats.DeferredLoads.Load(); n != loads {
		t.Fatalf("the promote loaded the file (%d loads)", n-loads)
	}
	got, err := dstPhys.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// 240 000 bytes: three chunks and a tail.
	if n := dstPhys.Stats.DeferredLoads.Load(); n != loads+4 {
		t.Fatalf("first read: %d loads, want 4", n-loads)
	}
	latest, err := dst.cfg.Archive.Latest("fs1", path)
	if err != nil || !bytes.Equal(got, bytesOf(t, latest)) {
		t.Fatalf("first read returned %d bytes, not the latest version (%v)", len(got), err)
	}
}

// TestEvictAndDissolveForgetThePathInOneTransaction: an evict (EndExport)
// and a restore's dissolve each delete the path's link, update and
// pending-archive rows in one repository transaction — no crash between two
// of them can leave an update row behind the link row, where it would fail
// every write open after a relink. The path links again and commits an
// update, and no row of it is left over.
func TestEvictAndDissolveForgetThePathInOneTransaction(t *testing.T) {
	const path = "/d/f.bin"
	for _, how := range []string{"evict", "dissolve"} {
		t.Run(how, func(t *testing.T) {
			srv, phys, host := newServer(t)
			linkCommitted(t, srv, path, "rdd")
			// What a failed clear and a failed archive put leave behind.
			srv.Repo().MustExec(`INSERT INTO dlfm_updates (path, open_id) VALUES (?, 99)`, sqlmini.Str(path))
			srv.Repo().MustExec(`INSERT INTO dlfm_pending_archive (path, version, state_id) VALUES (?, 0, 1)`, sqlmini.Str(path))
			from := srv.Repo().Log().TailLSN() + 1
			switch how {
			case "evict":
				if err := srv.BeginExport(path); err != nil {
					t.Fatal(err)
				}
				if err := srv.EndExport(path, true); err != nil {
					t.Fatal(err)
				}
				seedFile(t, phys, path, "again")
			case "dissolve":
				if err := srv.Restore(host.state, nil); err != nil {
					t.Fatal(err)
				}
			}
			commits := 0
			srv.Repo().Log().Scan(from, wal.NilLSN, func(r wal.Record) bool {
				if r.Type == wal.RecCommit {
					commits++
				}
				return true
			})
			if commits != 1 {
				t.Fatalf("%s committed %d repository transactions, want 1", how, commits)
			}
			rowsLeft := func() (n int) {
				for _, tbl := range []*sqlmini.Table{srv.files, srv.updates, srv.pending} {
					if _, ok := rowOf(tbl, path); ok {
						n++
					}
				}
				return n
			}
			if n := rowsLeft(); n != 0 {
				t.Fatalf("%s left %d of the path's rows", how, n)
			}
			linkCommitted(t, srv, path, "rdd")
			commitVersion(t, srv, phys, path, []byte("v1"))
			if fi, ok := srv.lookupFile(path); !ok || fi.version != 1 {
				t.Fatalf("after the relink and a commit: %+v, %v; want version 1", fi, ok)
			}
			if n := rowsLeft(); n != 1 {
				t.Fatalf("after the relink and a commit: %d of the path's rows, want only its link row", n)
			}
		})
	}
}
