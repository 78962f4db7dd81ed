package dlfm

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"datalinks/internal/archive"
	"datalinks/internal/fs"
	"datalinks/internal/token"
	"datalinks/internal/upcall"
)

// newShardPeer builds a second server sharing the authority name "fs1" (as
// cluster members do) with an empty filesystem — a migration destination.
func newShardPeer(t *testing.T) (*Server, *fs.FS) {
	t.Helper()
	phys := fs.New()
	srv, err := New(Config{
		Name:     "fs1",
		Phys:     phys,
		Archive:  archive.New(0, nil),
		Host:     newFakeHost(),
		TokenKey: []byte("k"),
		OpenWait: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("new peer: %v", err)
	}
	return srv, phys
}

// copyHistory hands path's whole archive history from src to dst the way the
// cluster does: one export from the start, one import.
func copyHistory(src, dst *Server, path string) error {
	recs, err := src.cfg.Archive.ExportDelta("fs1", path, -1)
	if err != nil {
		return err
	}
	_, err = dst.cfg.Archive.ImportDelta("fs1", path, recs, src.cfg.Archive.FetchBlob)
	return err
}

// migrate runs the full per-path handoff between two servers, the way the
// cluster router does: freeze+export, archive history, bundle import, evict.
func migrate(t *testing.T, src, dst *Server, path string) {
	t.Helper()
	b, err := src.BeginExport(path)
	if err != nil {
		t.Fatalf("begin export: %v", err)
	}
	defer b.Release()
	if err := copyHistory(src, dst, path); err != nil {
		src.AbortExport(path)
		t.Fatalf("import history: %v", err)
	}
	if err := dst.ImportBundle(b); err != nil {
		src.AbortExport(path)
		t.Fatalf("import bundle: %v", err)
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
// nothing — and ImportBundle turns the replica row into the link row, so the
// new owner is not left a replica of itself.
func TestShardImportOntoReplicaRetiresTheRow(t *testing.T) {
	src, srcPhys, _ := newServer(t)
	linkCommitted(t, src, "/d/f.bin", "rfd")
	dst, dstPhys := newShardPeer(t)
	shipTo(t, src, srcPhys, dst, "/d/f.bin")
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
	src.WaitArchives()
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
	dst.WaitArchives()
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
	if _, err := src.BeginExport("/d/f.bin"); !errors.Is(err, ErrFileBusy) {
		t.Fatalf("export with writer in flight = %v, want ErrFileBusy", err)
	}
	if resp := closeFile(t, src, srcPhys, "/d/f.bin", id); !resp.OK {
		t.Fatalf("close: %+v", resp)
	}
	// Writer gone: the drain succeeds now.
	b, err := src.BeginExport("/d/f.bin")
	if err != nil {
		t.Fatalf("export after drain: %v", err)
	}
	b.Release()
	src.AbortExport("/d/f.bin")
}

func TestExportFreezeBlocksOpensUntilAbort(t *testing.T) {
	src, _, _ := newServer(t)
	linkCommitted(t, src, "/d/f.bin", "rfd")
	b, err := src.BeginExport("/d/f.bin")
	if err != nil {
		t.Fatalf("begin export: %v", err)
	}
	defer b.Release()

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
	if _, err := src.BeginExport("/d/f.bin"); !errors.Is(err, ErrNotLinked) {
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
	b, err := src.BeginExport("/d/f.bin")
	if err != nil {
		t.Fatalf("begin export: %v", err)
	}
	b.Release()
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

func TestImportBundleRejectsLinkedPath(t *testing.T) {
	src, _, _ := newServer(t)
	linkCommitted(t, src, "/d/f.bin", "rfd")
	b, err := src.BeginExport("/d/f.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	defer src.AbortExport("/d/f.bin")
	dst, dstPhys := newShardPeer(t)
	dstPhys.MkdirAll("/d", fs.Cred{UID: fs.Root}, 0o777)
	seedFile(t, dstPhys, "/d/f.bin", "local")
	linkCommitted(t, dst, "/d/f.bin", "rfd")
	if err := dst.ImportBundle(b); !errors.Is(err, ErrAlreadyLinked) {
		t.Fatalf("import over linked path = %v, want ErrAlreadyLinked", err)
	}
}
