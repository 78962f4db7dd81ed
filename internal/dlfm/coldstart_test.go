package dlfm

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"datalinks/internal/archive"
	"datalinks/internal/fs"
	"datalinks/internal/token"
	"datalinks/internal/upcall"
)

// coldConfig builds a disk-backed DLFM config over repoDir/archDir.
func coldConfig(t *testing.T, phys *fs.FS, repoDir, archDir string) (Config, *archive.Store) {
	t.Helper()
	arch, err := archive.NewTiered(0, nil, archive.TierConfig{Dir: archDir})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Name: "fs1", Phys: phys, Archive: arch, Host: newFakeHost(),
		TokenKey: []byte("k"), OpenWait: 100 * time.Millisecond,
		RepoDir: repoDir, RepoCheckpointBytes: 8 << 10,
	}, arch
}

// commitVersion runs one full update transaction writing content to path.
func commitVersion(t *testing.T, srv *Server, phys *fs.FS, path string, content []byte) {
	t.Helper()
	id := openWrite(t, srv, path, owner)
	if err := phys.WriteFile(path, content); err != nil {
		t.Fatal(err)
	}
	if resp := closeFile(t, srv, phys, path, id); !resp.OK {
		t.Fatalf("close %s: %+v", path, resp)
	}
}

// TestColdStartWholeProcessKill: the entire process dies — DLFM, its
// repository, AND the RAM-backed physical file system. Only the repository
// directory (WAL + snapshot) and the archive directory survive. A cold Open
// from those two directories must rebuild every link byte-identically:
// untouched files installed from the archive and loaded on their first read,
// the in-flight update rolled back to its last committed version, and
// nothing re-archived.
func TestColdStartWholeProcessKill(t *testing.T) {
	root := t.TempDir()
	repoDir, archDir := root+"/repo", root+"/archive"

	phys1 := fs.New()
	phys1.MkdirAll("/d", fs.Cred{UID: fs.Root}, 0o777)
	cfg, arch1 := coldConfig(t, phys1, repoDir, archDir)
	srv, rep, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Fatalf("fresh open produced a recovery report: %+v", rep)
	}

	want := map[string][]byte{}
	for _, p := range []string{"/d/a.bin", "/d/b.bin"} {
		seedFile(t, phys1, p, "v0 of "+p)
		linkCommitted(t, srv, p, "rfd")
		want[p] = []byte("v0 of " + p)
	}
	for v := 1; v <= 3; v++ {
		content := []byte(fmt.Sprintf("a.bin committed version %d %s", v, strings.Repeat("x", 900)))
		commitVersion(t, srv, phys1, "/d/a.bin", content)
		want["/d/a.bin"] = content
	}
	content := []byte("b.bin committed version 1 " + strings.Repeat("y", 900))
	commitVersion(t, srv, phys1, "/d/b.bin", content)
	want["/d/b.bin"] = content

	// An update is in flight on a.bin when the machine dies.
	openWrite(t, srv, "/d/a.bin", owner)
	if err := phys1.WriteFile("/d/a.bin", []byte("in-flight junk")); err != nil {
		t.Fatal(err)
	}

	// Whole-process death: server killed, archive store dropped, and the
	// RAM-backed phys simply ceases to exist.
	srv.Kill()
	arch1.Close()

	phys2 := fs.New() // not even /d survives
	cfg2, arch2 := coldConfig(t, phys2, repoDir, archDir)
	defer arch2.Close()
	srv2, rep2, err := Open(cfg2)
	if err != nil {
		t.Fatalf("cold open: %v", err)
	}
	defer srv2.Close()
	if rep2 == nil {
		t.Fatal("cold open of a used repository returned no recovery report")
	}
	if !rep2.Repo.SnapshotUsed {
		t.Fatalf("repository recovery ignored the checkpoint: %+v", rep2.Repo)
	}
	if len(rep2.LostFiles) != 0 {
		t.Fatalf("lost files on a fully archived workload: %v", rep2.LostFiles)
	}
	// b.bin was at rest: installed. a.bin was mid-update: rolled back.
	if len(rep2.MaterializedFiles) != 1 || rep2.MaterializedFiles[0] != "/d/b.bin" {
		t.Fatalf("materialized = %v, want [/d/b.bin]", rep2.MaterializedFiles)
	}
	if len(rep2.RestoredFiles) != 1 || rep2.RestoredFiles[0] != "/d/a.bin" {
		t.Fatalf("restored = %v, want [/d/a.bin]", rep2.RestoredFiles)
	}
	// Every archived version was already durable; nothing re-archived.
	if len(rep2.ArchivedVersions) != 0 {
		t.Fatalf("cold start re-archived %v", rep2.ArchivedVersions)
	}
	if d := arch2.Dedup(); d.NewBytes != 0 {
		t.Fatalf("cold start transferred %d new bytes to the archive", d.NewBytes)
	}
	// b.bin is installed, not loaded: it has its size, and its bytes stay in
	// the archive until something reads them.
	if n := phys2.Stats.DeferredLoads.Load(); n != 0 {
		t.Fatalf("cold start loaded %d deferred files before any read", n)
	}
	if ino, err := phys2.Lookup("/d/b.bin"); err != nil {
		t.Fatal(err)
	} else if attr, _ := phys2.Getattr(ino); attr.Size != int64(len(want["/d/b.bin"])) {
		t.Fatalf("installed b.bin has size %d, want %d", attr.Size, len(want["/d/b.bin"]))
	}
	if n := phys2.Stats.DeferredLoads.Load(); n != 0 {
		t.Fatalf("a stat loaded b.bin (%d loads)", n)
	}
	for p, wantContent := range want {
		got, err := phys2.ReadFile(p)
		if err != nil || !bytes.Equal(got, wantContent) {
			t.Fatalf("%s diverged after cold start (err=%v, %d bytes, want %d)", p, err, len(got), len(wantContent))
		}
		if !srv2.IsLinked(p) {
			t.Fatalf("%s not linked after cold start", p)
		}
	}
	// a.bin's restore installs deferred as well, so each file loads once.
	if n := phys2.Stats.DeferredLoads.Load(); n != 2 {
		t.Fatalf("reading both files loaded %d deferred files, want 2", n)
	}
	// The in-flight junk never existed on the cold phys, so nothing to
	// quarantine.
	if q := srv2.QuarantinedFiles(); len(q) != 0 {
		t.Fatalf("cold start quarantined %v with no surviving in-flight bytes", q)
	}

	// The recovered server keeps working on top of the restored state.
	commitVersion(t, srv2, phys2, "/d/a.bin", []byte("post-cold-start version"))
	e, err := arch2.Latest("fs1", "/d/a.bin")
	if err != nil || !bytes.Equal(bytesOf(t, e), []byte("post-cold-start version")) {
		t.Fatalf("post-cold-start version not archived (%v)", err)
	}
}

// TestColdStartConcurrentInFlightQuarantine: the process dies with several
// concurrent update transactions open, but the physical file system survives
// (warm disk, dead process). Reconciliation must quarantine every in-flight
// version and roll each file back to its last committed content.
func TestColdStartConcurrentInFlightQuarantine(t *testing.T) {
	root := t.TempDir()
	repoDir, archDir := root+"/repo", root+"/archive"

	phys := fs.New()
	phys.MkdirAll("/d", fs.Cred{UID: fs.Root}, 0o777)
	cfg, arch1 := coldConfig(t, phys, repoDir, archDir)
	srv, _, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const files = 4
	paths := make([]string, files)
	want := map[string][]byte{}
	for i := range paths {
		p := fmt.Sprintf("/d/f%d.bin", i)
		paths[i] = p
		seedFile(t, phys, p, "seed")
		linkCommitted(t, srv, p, "rfd")
		content := []byte(fmt.Sprintf("committed content of %s %s", p, strings.Repeat("z", 500)))
		commitVersion(t, srv, phys, p, content)
		want[p] = content
	}

	// Concurrent in-flight updates, then the process dies mid-update.
	errs := make(chan error, files)
	var wg sync.WaitGroup
	for _, p := range paths {
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			tok := srv.Authority().Issue(token.Write, p)
			if resp, err := srv.Upcall(upcall.Request{Op: upcall.OpValidateToken, Path: p, Token: tok, UID: int32(owner)}); err != nil || !resp.OK {
				errs <- fmt.Errorf("validate %s: %+v %v", p, resp, err)
				return
			}
			if resp, err := srv.Upcall(upcall.Request{Op: upcall.OpWriteOpen, Path: p, UID: int32(owner), Write: true}); err != nil || !resp.OK {
				errs <- fmt.Errorf("open %s: %+v %v", p, resp, err)
				return
			}
			errs <- phys.WriteFile(p, []byte("in-flight junk on "+p))
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	srv.Kill()
	arch1.Close()

	cfg2, arch2 := coldConfig(t, phys, repoDir, archDir)
	defer arch2.Close()
	srv2, rep, err := Open(cfg2)
	if err != nil {
		t.Fatalf("cold open: %v", err)
	}
	defer srv2.Close()
	if len(rep.RestoredFiles) != files {
		t.Fatalf("restored %v, want all %d in-flight files", rep.RestoredFiles, files)
	}
	q := srv2.QuarantinedFiles()
	if len(q) != files {
		t.Fatalf("quarantine holds %d files (%v), want %d", len(q), q, files)
	}
	for _, p := range paths {
		got, err := phys.ReadFile(p)
		if err != nil || !bytes.Equal(got, want[p]) {
			t.Fatalf("%s not rolled back to committed content (err=%v)", p, err)
		}
		// The in-flight bytes are preserved in quarantine.
		found := false
		for _, name := range q {
			data, err := phys.ReadFile(DefaultQuarantineDir + "/" + name)
			if err == nil && bytes.Equal(data, []byte("in-flight junk on "+p)) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("in-flight content of %s missing from quarantine %v", p, q)
		}
	}
}

// TestColdStartUnlinkBeforeFirstRead: a cold start installs a linked file
// without reading it, then a committed unlink drops its archived history
// (Archive.Drop) and a sweep reclaims whatever nothing references — all
// before anyone read the file. The first read must still return the file's
// last committed version: the install holds the version's blobs, it does not
// just remember where they were.
func TestColdStartUnlinkBeforeFirstRead(t *testing.T) {
	root := t.TempDir()
	repoDir, archDir := root+"/repo", root+"/archive"
	const path = "/d/big.bin"

	phys1 := fs.New()
	phys1.MkdirAll("/d", fs.Cred{UID: fs.Root}, 0o777)
	cfg, arch1 := coldConfig(t, phys1, repoDir, archDir)
	srv, _, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seedFile(t, phys1, path, "v0")
	linkCommitted(t, srv, path, "rfd")
	var want []byte
	for v := 1; v <= 3; v++ {
		want = bytes.Repeat([]byte(fmt.Sprintf("version %d of a file larger than one chunk ", v)), 2500)
		commitVersion(t, srv, phys1, path, want)
	}
	srv.Kill()
	arch1.Close()

	phys2 := fs.New()
	cfg2, arch2 := coldConfig(t, phys2, repoDir, archDir)
	defer arch2.Close()
	srv2, rep, err := Open(cfg2)
	if err != nil {
		t.Fatalf("cold open: %v", err)
	}
	defer srv2.Close()
	if len(rep.MaterializedFiles) != 1 || rep.MaterializedFiles[0] != path {
		t.Fatalf("materialized = %v, want [%s]", rep.MaterializedFiles, path)
	}

	const hostTxn = 4242
	if err := srv2.UnlinkFile(hostTxn, path); err != nil {
		t.Fatalf("unlink: %v", err)
	}
	if err := srv2.PrepareXRM(hostTxn); err != nil {
		t.Fatal(err)
	}
	if err := srv2.CommitXRM(hostTxn); err != nil {
		t.Fatal(err)
	}
	if v := arch2.Versions("fs1", path); len(v) != 0 {
		t.Fatalf("committed unlink left %d archived versions", len(v))
	}
	arch2.GCNow()
	if n := phys2.Stats.DeferredLoads.Load(); n != 0 {
		t.Fatalf("the unlink loaded the file (%d loads)", n)
	}

	got, err := phys2.ReadFile(path)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("first read after the unlink: %d bytes, %v; want the last committed version (%d bytes)", len(got), err, len(want))
	}
}
