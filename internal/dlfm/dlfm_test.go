package dlfm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"datalinks/internal/archive"
	"datalinks/internal/datalink"
	"datalinks/internal/fs"
	"datalinks/internal/sqlmini"
	"datalinks/internal/token"
	"datalinks/internal/upcall"
	"datalinks/internal/wal"
)

// newArchive opens an archive store over a test directory, closed when the
// test ends.
func newArchive(t testing.TB) *archive.Store {
	t.Helper()
	arch, err := archive.NewTiered(0, nil, archive.TierConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(arch.Close)
	return arch
}

// openServer starts a server over a fresh test repository directory; it is
// killed when the test ends.
func openServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	cfg.RepoDir = t.TempDir()
	srv, rep, err := Open(cfg)
	if err != nil {
		t.Fatalf("open dlfm: %v", err)
	}
	if rep != nil {
		t.Fatalf("fresh repository ran recovery: %+v", rep)
	}
	t.Cleanup(srv.Kill)
	return srv
}

// reopen is the restart after a crash: dead was killed, and a server opens
// over its repository directory with cfg, whose Phys and Archive survived.
// It is killed when the test ends.
func reopen(t testing.TB, dead *Server, cfg Config) (*Server, *RecoveryReport) {
	t.Helper()
	cfg.RepoDir = dead.cfg.RepoDir
	srv, rep, err := Open(cfg)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	t.Cleanup(srv.Kill)
	return srv, rep
}

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

// fakeHost implements Host with controllable outcomes.
type fakeHost struct {
	metaErr  error
	outcomes map[uint64]bool
	state    uint64
	nextTxn  uint64
	metaLog  []string
}

func newFakeHost() *fakeHost {
	return &fakeHost{outcomes: make(map[uint64]bool), state: 1, nextTxn: 1000}
}

func (h *fakeHost) MetaUpdate(server, path string, size int64, mtime time.Time, sub sqlmini.XRM) (uint64, error) {
	h.nextTxn++
	id := h.nextTxn
	if h.metaErr != nil {
		// Host aborts: tell the participant.
		_ = sub.AbortXRM(id)
		h.outcomes[id] = false
		return 0, h.metaErr
	}
	if err := sub.PrepareXRM(id); err != nil {
		_ = sub.AbortXRM(id)
		h.outcomes[id] = false
		return 0, err
	}
	h.state++
	h.outcomes[id] = true
	if err := sub.CommitXRM(id); err != nil {
		return 0, err
	}
	h.metaLog = append(h.metaLog, path)
	return h.state, nil
}

func (h *fakeHost) TxnOutcome(txnID uint64) (bool, bool) {
	c, ok := h.outcomes[txnID]
	return c, ok
}

func (h *fakeHost) StateID() uint64 { return h.state }

const owner fs.UID = 100

func newServer(t *testing.T) (*Server, *fs.FS, *fakeHost) {
	t.Helper()
	phys := fs.New()
	phys.MkdirAll("/d", fs.Cred{UID: fs.Root}, 0o777)
	seedFile(t, phys, "/d/f.bin", "v0")
	host := newFakeHost()
	srv := openServer(t, Config{
		Name:     "fs1",
		Phys:     phys,
		Archive:  newArchive(t),
		Host:     host,
		TokenKey: []byte("k"),
		OpenWait: 100 * time.Millisecond,
	})
	return srv, phys, host
}

func seedFile(t *testing.T, phys *fs.FS, path, content string) {
	t.Helper()
	if err := phys.WriteFile(path, []byte(content)); err != nil {
		t.Fatalf("seed: %v", err)
	}
	ino, _ := phys.Lookup(path)
	phys.Chown(ino, fs.Cred{UID: fs.Root}, owner)
	phys.Chmod(ino, fs.Cred{UID: owner}, 0o644)
}

// linkCommitted links a file and commits the host transaction.
func linkCommitted(t *testing.T, srv *Server, path, mode string) {
	t.Helper()
	m, err := datalink.ParseMode(mode)
	if err != nil {
		t.Fatal(err)
	}
	hostTxn := uint64(time.Now().UnixNano()) // unique enough per test
	if err := srv.LinkFile(hostTxn, path, datalink.ColumnOptions{Mode: m, Recovery: true}); err != nil {
		t.Fatalf("link: %v", err)
	}
	if err := srv.PrepareXRM(hostTxn); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if err := srv.CommitXRM(hostTxn); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

func TestLinkRepositoryAndPermissions(t *testing.T) {
	srv, phys, _ := newServer(t)
	linkCommitted(t, srv, "/d/f.bin", "rfd")
	if !srv.IsLinked("/d/f.bin") {
		t.Fatal("not linked")
	}
	mode, _ := srv.FileMode("/d/f.bin")
	if mode.String() != "rfd" {
		t.Fatalf("mode = %s", mode)
	}
	ino, _ := phys.Lookup("/d/f.bin")
	attr, _ := phys.Getattr(ino)
	if attr.Mode&0o222 != 0 {
		t.Fatalf("rfd file writable after link: %o", attr.Mode)
	}
	// Version 0 archived.
	if len(srv.cfg.Archive.Versions("fs1", "/d/f.bin")) != 1 {
		t.Fatal("v0 not archived")
	}
}

func TestDoubleLinkRejected(t *testing.T) {
	srv, _, _ := newServer(t)
	linkCommitted(t, srv, "/d/f.bin", "rfd")
	err := srv.LinkFile(1, "/d/f.bin", datalink.ColumnOptions{Mode: datalink.RFD})
	if !errors.Is(err, ErrAlreadyLinked) {
		t.Fatalf("double link = %v", err)
	}
	// The failed sub-transaction must be aborted by the host.
	if err := srv.AbortXRM(1); err != nil {
		t.Fatalf("abort: %v", err)
	}
}

func TestLinkMissingFile(t *testing.T) {
	srv, _, _ := newServer(t)
	err := srv.LinkFile(1, "/d/missing.bin", datalink.ColumnOptions{Mode: datalink.RFD})
	if !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("link missing = %v", err)
	}
	_ = srv.AbortXRM(1)
}

func TestUnlinkRestoresPermissionsOnCommitOnly(t *testing.T) {
	srv, phys, _ := newServer(t)
	linkCommitted(t, srv, "/d/f.bin", "rdd")
	ino, _ := phys.Lookup("/d/f.bin")

	const hostTxn = 77
	if err := srv.UnlinkFile(hostTxn, "/d/f.bin"); err != nil {
		t.Fatalf("unlink: %v", err)
	}
	// Before commit the file stays protected.
	attr, _ := phys.Getattr(ino)
	if attr.UID != srv.UID() {
		t.Fatal("file unprotected before unlink commit")
	}
	srv.PrepareXRM(hostTxn)
	srv.CommitXRM(hostTxn)
	attr, _ = phys.Getattr(ino)
	if attr.UID != owner || attr.Mode != 0o644 {
		t.Fatalf("not restored after unlink: uid=%d mode=%o", attr.UID, attr.Mode)
	}
	if srv.IsLinked("/d/f.bin") {
		t.Fatal("still linked")
	}
}

func TestUnlinkAbortKeepsLink(t *testing.T) {
	srv, phys, _ := newServer(t)
	linkCommitted(t, srv, "/d/f.bin", "rdd")
	const hostTxn = 78
	srv.UnlinkFile(hostTxn, "/d/f.bin")
	srv.AbortXRM(hostTxn)
	if !srv.IsLinked("/d/f.bin") {
		t.Fatal("link lost after aborted unlink")
	}
	ino, _ := phys.Lookup("/d/f.bin")
	attr, _ := phys.Getattr(ino)
	if attr.UID != srv.UID() {
		t.Fatal("file lost protection after aborted unlink")
	}
}

// TestUnlinkAfterACloseDropsItsVersion: an unlink right after a close drops
// the close's version with the rest of the history — the close archived
// before it returned, so nothing indexes the version afterwards. Otherwise a
// re-link adopts that stale version as already archived, and an aborted
// update restores bytes from before the unlink.
func TestUnlinkAfterACloseDropsItsVersion(t *testing.T) {
	const path = "/d/f.bin"
	phys := fs.New()
	phys.MkdirAll("/d", rootCred, 0o777)
	seedFile(t, phys, path, "v0")
	srv := openServer(t, Config{
		Name: "fs1", Phys: phys, Archive: newArchive(t), Host: newFakeHost(),
		TokenKey: []byte("k"), OpenWait: 5 * time.Second,
	})
	linkCommitted(t, srv, path, "rfd")
	commitVersion(t, srv, phys, path, []byte("old-v1"))
	const hostTxn = 79
	if err := srv.UnlinkFile(hostTxn, path); err != nil {
		t.Fatalf("unlink: %v", err)
	}
	if err := srv.PrepareXRM(hostTxn); err != nil {
		t.Fatal(err)
	}
	if err := srv.CommitXRM(hostTxn); err != nil {
		t.Fatal(err)
	}
	if vs := srv.cfg.Archive.Versions("fs1", path); len(vs) != 0 {
		t.Fatalf("the unlinked path kept %d versions", len(vs))
	}

	// Re-link the path with new bytes: an aborted update restores those.
	seedFile(t, phys, path, "fresh")
	linkCommitted(t, srv, path, "rfd")
	openWrite(t, srv, path, owner)
	phys.WriteFile(path, []byte("in-flight"))
	if err := srv.AbortUpdateByPath(path); err != nil {
		t.Fatalf("abort: %v", err)
	}
	if got, err := phys.ReadFile(path); err != nil || string(got) != "fresh" {
		t.Fatalf("abort restored %q, %v; want the re-linked bytes", got, err)
	}
}

// openWrite performs the token open against the server: the write token
// rides the open request.
func openWrite(t *testing.T, srv *Server, path string, uid fs.UID) uint64 {
	t.Helper()
	tok := srv.Authority().Issue(token.Write, path)
	resp, err := srv.Upcall(upcall.Request{Op: upcall.OpWriteOpen, Path: path, Token: tok, UID: int32(uid), Write: true})
	if err != nil || !resp.OK {
		t.Fatalf("write open: %+v, %v", resp, err)
	}
	return resp.OpenID
}

func closeFile(t *testing.T, srv *Server, phys *fs.FS, path string, openID uint64) upcall.Response {
	t.Helper()
	ino, _ := phys.Lookup(path)
	attr, _ := phys.Getattr(ino)
	resp, err := srv.Upcall(upcall.Request{
		Op: upcall.OpClose, OpenID: openID,
		Size: attr.Size, Mtime: attr.Mtime.UnixNano(),
	})
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	return resp
}

func TestWriteOpenCloseCommitsVersion(t *testing.T) {
	srv, phys, host := newServer(t)
	linkCommitted(t, srv, "/d/f.bin", "rfd")
	id := openWrite(t, srv, "/d/f.bin", owner)

	// The file is taken over during the update.
	ino, _ := phys.Lookup("/d/f.bin")
	attr, _ := phys.Getattr(ino)
	if attr.UID != srv.UID() {
		t.Fatal("no takeover during update")
	}
	if got := srv.UpdatesInFlight(); len(got) != 1 {
		t.Fatalf("update entries = %v", got)
	}
	// Write new content (as root, simulating the approved writer).
	phys.WriteFile("/d/f.bin", []byte("v1"))
	resp := closeFile(t, srv, phys, "/d/f.bin", id)
	if !resp.OK {
		t.Fatalf("close rejected: %+v", resp)
	}
	// Metadata was pushed to the host, version archived, takeover released.
	if len(host.metaLog) != 1 || host.metaLog[0] != "/d/f.bin" {
		t.Fatalf("meta updates = %v", host.metaLog)
	}
	vs := srv.cfg.Archive.Versions("fs1", "/d/f.bin")
	if len(vs) != 2 || string(bytesOf(t, vs[1])) != "v1" {
		t.Fatalf("versions = %+v", vs)
	}
	attr, _ = phys.Getattr(ino)
	if attr.UID != owner {
		t.Fatal("takeover not released")
	}
	if len(srv.UpdatesInFlight()) != 0 {
		t.Fatal("update entry not cleared")
	}
}

func TestCloseFailureRollsBack(t *testing.T) {
	srv, phys, host := newServer(t)
	linkCommitted(t, srv, "/d/f.bin", "rfd")
	id := openWrite(t, srv, "/d/f.bin", owner)
	phys.WriteFile("/d/f.bin", []byte("doomed"))
	host.metaErr = errors.New("host refused")
	resp := closeFile(t, srv, phys, "/d/f.bin", id)
	if resp.OK {
		t.Fatal("close should fail when the host transaction aborts")
	}
	// Rolled back to v0, in-flight quarantined.
	data, _ := phys.ReadFile("/d/f.bin")
	if string(data) != "v0" {
		t.Fatalf("content = %q, want v0", data)
	}
	names, _ := phys.ReadDir(DefaultQuarantineDir)
	if len(names) != 1 {
		t.Fatalf("quarantine = %v", names)
	}
	if len(srv.UpdatesInFlight()) != 0 {
		t.Fatal("update entry survived rollback")
	}
}

func TestWriteOpenRequiresWriteToken(t *testing.T) {
	srv, _, _ := newServer(t)
	linkCommitted(t, srv, "/d/f.bin", "rfd")
	// Read token only.
	tok := srv.Authority().Issue(token.Read, "/d/f.bin")
	srv.Upcall(upcall.Request{Op: upcall.OpValidateToken, Path: "/d/f.bin", Token: tok, UID: int32(owner)})
	resp, _ := srv.Upcall(upcall.Request{Op: upcall.OpWriteOpen, Path: "/d/f.bin", UID: int32(owner), Write: true})
	if resp.OK || resp.Code != upcall.CodePermission {
		t.Fatalf("write with read token = %+v", resp)
	}
}

func TestTokenEntryExpiry(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	clock := &now
	phys := fs.New()
	phys.MkdirAll("/d", fs.Cred{UID: fs.Root}, 0o777)
	phys.WriteFile("/d/f.bin", []byte("x"))
	host := newFakeHost()
	srv := openServer(t, Config{
		Name: "fs1", Phys: phys, Archive: newArchive(t), Host: host,
		TokenKey: []byte("k"), Clock: func() time.Time { return *clock }, TokenTTL: time.Minute,
	})
	linkCommitted(t, srv, "/d/f.bin", "rdd")
	tok := srv.Authority().Issue(token.Read, "/d/f.bin")
	resp, _ := srv.Upcall(upcall.Request{Op: upcall.OpValidateToken, Path: "/d/f.bin", Token: tok, UID: 9})
	if !resp.OK {
		t.Fatalf("validate: %+v", resp)
	}
	if srv.TokenEntryCount() != 1 {
		t.Fatal("no token entry")
	}
	// After expiry, the entry no longer grants opens.
	*clock = now.Add(2 * time.Minute)
	resp, _ = srv.Upcall(upcall.Request{Op: upcall.OpReadOpen, Path: "/d/f.bin", UID: 9})
	if resp.OK {
		t.Fatal("expired entry granted access")
	}
	// Nor does a dead grant outrank a live token: a fresh read token is
	// admitted over the expired write entry it finds.
	srv.Upcall(upcall.Request{Op: upcall.OpValidateToken, Path: "/d/f.bin", Token: srv.Authority().Issue(token.Write, "/d/f.bin"), UID: 9})
	*clock = clock.Add(2 * time.Minute)
	resp, _ = srv.Upcall(upcall.Request{Op: upcall.OpReadOpen, Path: "/d/f.bin", UID: 9, Token: srv.Authority().Issue(token.Read, "/d/f.bin")})
	if !resp.OK {
		t.Fatalf("live read token refused behind an expired write entry: %+v", resp)
	}
}

// Grants nobody looks up again (distinct users × paths, each validated once)
// must not accumulate: the table sweeps its expired entries as it grows, so
// its size follows the live grants, not the history.
func TestTokenTableShedsExpiredGrants(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	srv := openServer(t, Config{
		Name: "fs1", Phys: fs.New(), Archive: newArchive(t), Host: newFakeHost(),
		TokenKey: []byte("k"), Clock: func() time.Time { return now }, TokenTTL: time.Minute,
	})
	const live = 10 // grants inside their TTL at any moment
	peak := 0
	for i := 0; i < 10_000; i++ {
		path := fmt.Sprintf("/d/f%d.bin", i)
		tok := srv.Authority().Issue(token.Read, path)
		if resp, _ := srv.Upcall(upcall.Request{Op: upcall.OpValidateToken, Path: path, Token: tok, UID: int32(i % 7)}); !resp.OK {
			t.Fatalf("validate %d: %+v", i, resp)
		}
		now = now.Add(time.Minute / live)
		peak = max(peak, srv.TokenEntryCount())
	}
	if peak > 2*minTokenSweep {
		t.Fatalf("token table peaked at %d entries with %d live grants; expired grants are not shed", peak, live)
	}
}

func TestUnmodifiedCloseSkipsHost(t *testing.T) {
	srv, phys, host := newServer(t)
	linkCommitted(t, srv, "/d/f.bin", "rfd")
	id := openWrite(t, srv, "/d/f.bin", owner)
	// No write between open and close.
	resp := closeFile(t, srv, phys, "/d/f.bin", id)
	if !resp.OK {
		t.Fatalf("close: %+v", resp)
	}
	if len(host.metaLog) != 0 {
		t.Fatal("unmodified close ran a host metadata update")
	}
	if len(srv.cfg.Archive.Versions("fs1", "/d/f.bin")) != 1 {
		t.Fatal("unmodified close archived a version")
	}
}

func TestCrashRecoveryInDoubtCommit(t *testing.T) {
	srv, phys, host := newServer(t)
	linkCommitted(t, srv, "/d/f.bin", "rfd")

	// Start a link of a second file and crash between prepare and commit.
	seedFile(t, phys, "/d/g.bin", "g0")
	const hostTxn = 500
	if err := srv.LinkFile(hostTxn, "/d/g.bin", datalink.ColumnOptions{Mode: datalink.RFD, Recovery: true}); err != nil {
		t.Fatalf("link: %v", err)
	}
	if err := srv.PrepareXRM(hostTxn); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	host.outcomes[hostTxn] = true // the host committed

	srv.Kill()
	srv2, rep := reopen(t, srv, Config{
		Name: "fs1", Phys: phys, Archive: srv.cfg.Archive, Host: host, TokenKey: []byte("k"),
	})
	if len(rep.ResolvedCommit) != 1 {
		t.Fatalf("resolved commits = %v", rep.ResolvedCommit)
	}
	if !srv2.IsLinked("/d/g.bin") {
		t.Fatal("committed link lost in recovery")
	}
	// v0 of the new link archived during recovery.
	if len(srv2.cfg.Archive.Versions("fs1", "/d/g.bin")) != 1 {
		t.Fatal("v0 not archived during recovery")
	}
}

func TestCrashRecoveryInDoubtPresumedAbort(t *testing.T) {
	srv, phys, host := newServer(t)
	seedFile(t, phys, "/d/g.bin", "g0")
	const hostTxn = 501
	srv.LinkFile(hostTxn, "/d/g.bin", datalink.ColumnOptions{Mode: datalink.RDD, Recovery: true})
	srv.PrepareXRM(hostTxn)
	// Host never decided (unknown outcome -> presumed abort).

	srv.Kill()
	srv2, rep := reopen(t, srv, Config{
		Name: "fs1", Phys: phys, Archive: srv.cfg.Archive, Host: host, TokenKey: []byte("k"),
	})
	if len(rep.ResolvedAbort) != 1 {
		t.Fatalf("resolved aborts = %v", rep.ResolvedAbort)
	}
	if srv2.IsLinked("/d/g.bin") {
		t.Fatal("presumed-abort link survived")
	}
	// Takeover undone.
	ino, _ := phys.Lookup("/d/g.bin")
	attr, _ := phys.Getattr(ino)
	if attr.UID != owner || attr.Mode != 0o644 {
		t.Fatalf("permissions not compensated: uid=%d mode=%o", attr.UID, attr.Mode)
	}
}

// atRest is what a link or unlink outcome leaves of one file: its owner,
// mode and archive history (version, state id, bytes), and the server's
// linked files.
type atRest struct {
	uid     fs.UID
	mode    fs.FileMode
	history []string
	linked  []string
}

func observeAtRest(t *testing.T, srv *Server, phys *fs.FS, path string) atRest {
	t.Helper()
	ino, err := phys.Lookup(path)
	if err != nil {
		t.Fatal(err)
	}
	attr, _ := phys.Getattr(ino)
	got := atRest{uid: attr.UID, mode: attr.Mode, linked: srv.LinkedPaths()}
	for _, e := range srv.cfg.Archive.Versions(srv.cfg.Name, path) {
		got.history = append(got.history, fmt.Sprintf("v%d@%d %q", e.Version, e.StateID, bytesOf(t, e)))
	}
	return got
}

// TestJournalOutcomeParity: a link or unlink sub-transaction leaves the same
// owner, mode, archive history and linked files whether its outcome arrives
// live (CommitXRM, AbortXRM) or at restart, for a sub-transaction that was
// prepared, killed and resolved through the host's TxnOutcome — both run
// the one journal rule.
func TestJournalOutcomeParity(t *testing.T) {
	const path, hostTxn = "/d/g.bin", 700
	cases := []struct {
		name      string
		unlink    bool
		committed bool
	}{
		{"link-abort", false, false},
		{"link-commit", false, true},
		{"unlink-commit", true, true},
	}
	for _, mode := range []datalink.ControlMode{datalink.RFF, datalink.RFD, datalink.RDD} {
		for _, c := range cases {
			run := func(restart bool) atRest {
				srv, phys, host := newServer(t)
				seedFile(t, phys, path, "g0")
				opts := datalink.ColumnOptions{Mode: mode, Recovery: true}
				var err error
				if c.unlink {
					linkCommitted(t, srv, path, mode.String())
					if mode.UpdateManaged() {
						commitVersion(t, srv, phys, path, []byte("g1"))
					}
					err = srv.UnlinkFile(hostTxn, path)
				} else {
					err = srv.LinkFile(hostTxn, path, opts)
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := srv.PrepareXRM(hostTxn); err != nil {
					t.Fatal(err)
				}
				switch {
				case restart:
					host.outcomes[hostTxn] = c.committed
					srv.Kill()
					srv, _ = reopen(t, srv, Config{Name: "fs1", Phys: phys, Archive: srv.cfg.Archive,
						Host: host, TokenKey: []byte("k")})
				case c.committed:
					err = srv.CommitXRM(hostTxn)
				default:
					err = srv.AbortXRM(hostTxn)
				}
				if err != nil {
					t.Fatal(err)
				}
				return observeAtRest(t, srv, phys, path)
			}
			live, recovered := run(false), run(true)
			if !reflect.DeepEqual(live, recovered) {
				t.Errorf("%s %s: live outcome %+v, restart outcome %+v", mode, c.name, live, recovered)
			}
		}
	}
}

// TestRecoveryDoesNotArchiveAnUnlinkedPath: a pending-archive row for a path
// that is no longer linked is stale. Recovery archives nothing for it and
// deletes the row.
func TestRecoveryDoesNotArchiveAnUnlinkedPath(t *testing.T) {
	const path = "/d/f.bin"
	srv, phys, host := newServer(t)
	linkCommitted(t, srv, path, "rfd")
	commitVersion(t, srv, phys, path, []byte("v1"))
	const hostTxn = 80
	if err := srv.UnlinkFile(hostTxn, path); err != nil {
		t.Fatalf("unlink: %v", err)
	}
	if err := srv.PrepareXRM(hostTxn); err != nil {
		t.Fatal(err)
	}
	if err := srv.CommitXRM(hostTxn); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.repo.Exec(`INSERT INTO dlfm_pending_archive (path, version, state_id) VALUES (?, ?, ?)`,
		sqlmini.Str(path), sqlmini.Int(1), sqlmini.Int(int64(host.state))); err != nil {
		t.Fatal(err)
	}

	srv.Kill()
	srv2, rep := reopen(t, srv, Config{
		Name: "fs1", Phys: phys, Archive: srv.cfg.Archive, Host: host, TokenKey: []byte("k"),
	})
	if len(rep.ArchivedVersions) != 0 {
		t.Fatalf("recovery archived %v for an unlinked path", rep.ArchivedVersions)
	}
	if vs := srv2.cfg.Archive.Versions("fs1", path); len(vs) != 0 {
		t.Fatalf("the unlinked path has a history of %d versions again", len(vs))
	}
	pend, err := srv2.Repo().Table("dlfm_pending_archive")
	if err != nil {
		t.Fatal(err)
	}
	if pend.Len() != 0 {
		t.Fatalf("pending-archive rows left: %d", pend.Len())
	}
}

// TestUpdateClearFailureIsCounted: an unmodified close whose update row
// cannot be deleted — the repository's lock manager closed under it — counts
// the failure instead of dropping the error, and the next restart's
// in-flight pass restores the path and deletes the leftover row.
func TestUpdateClearFailureIsCounted(t *testing.T) {
	srv, phys, _ := newServer(t)
	linkCommitted(t, srv, "/d/f.bin", "rfd")
	id := openWrite(t, srv, "/d/f.bin", owner)
	srv.Repo().LockManager().Close()
	if resp := closeFile(t, srv, phys, "/d/f.bin", id); !resp.OK {
		t.Fatalf("unmodified close rejected: %+v", resp)
	}
	if got := srv.Metrics().Counter("dlfm.updates.clear_failures").Value(); got != 1 {
		t.Fatalf("updates.clear_failures = %d, want 1", got)
	}
	srv.Kill()
	srv2, rep := reopen(t, srv, srv.cfg)
	if len(rep.RestoredFiles) != 1 || rep.RestoredFiles[0] != "/d/f.bin" {
		t.Fatalf("restored files = %v, want the leftover row's path", rep.RestoredFiles)
	}
	if left := srv2.UpdatesInFlight(); len(left) != 0 {
		t.Fatalf("update rows after recovery: %v", left)
	}
}

// TestUnnotedPrepareFailsTheOpen: an in-doubt sub-transaction whose prepare
// record carries no recovery note — what a release that kept a journal table
// prepared — fails the Open with the typed error naming it, before anything
// is resolved or any file touched: a second Open fails the same way.
func TestUnnotedPrepareFailsTheOpen(t *testing.T) {
	srv, phys, _ := newServer(t)
	linkCommitted(t, srv, "/d/f.bin", "rfd")
	tx := srv.Repo().Begin()
	if _, err := tx.Exec(`UPDATE dlfm_files SET cur_version = 5 WHERE path = ?`, sqlmini.Str("/d/f.bin")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Prepare(nil); err != nil {
		t.Fatal(err)
	}
	before := observeAtRest(t, srv, phys, "/d/f.bin")
	srv.Kill()
	for i := 0; i < 2; i++ {
		_, _, err := Open(srv.cfg)
		var unnoted *UnnotedPrepareError
		if !errors.As(err, &unnoted) || unnoted.RepoTxn != tx.ID() || !strings.Contains(err.Error(), fmt.Sprint(tx.ID())) {
			t.Fatalf("open %d: err = %v, want an UnnotedPrepareError naming txn %d", i+1, err, tx.ID())
		}
	}
	ino, _ := phys.Lookup("/d/f.bin")
	attr, _ := phys.Getattr(ino)
	if attr.UID != before.uid || attr.Mode != before.mode {
		t.Fatalf("the refused open changed the file: uid %d mode %o, was uid %d mode %o", attr.UID, attr.Mode, before.uid, before.mode)
	}
}

// TestRecoveryDropsTheRetiredJournalTable: the journal table a repository
// from before prepare notes holds, rows and all, is gone after a restart,
// and the links beside it are kept.
func TestRecoveryDropsTheRetiredJournalTable(t *testing.T) {
	srv, _, _ := newServer(t)
	linkCommitted(t, srv, "/d/f.bin", "rfd")
	for _, q := range []string{
		`CREATE TABLE dlfm_txns (id INT PRIMARY KEY, repo_txn INT NOT NULL, host_txn INT NOT NULL, action VARCHAR NOT NULL,
			path VARCHAR NOT NULL, orig_uid INT NOT NULL, orig_mode INT NOT NULL, recovery BOOLEAN NOT NULL)`,
		`CREATE INDEX ON dlfm_txns (host_txn)`,
		`INSERT INTO dlfm_txns VALUES (1, 9, 502, 'link', '/d/f.bin', 100, 420, TRUE)`,
	} {
		if _, err := srv.Repo().Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	srv.Kill()
	srv2, rep := reopen(t, srv, srv.cfg)
	if _, err := srv2.Repo().Table("dlfm_txns"); err == nil {
		t.Fatal("the journal table survived the restart")
	}
	if len(rep.ResolvedCommit)+len(rep.ResolvedAbort) != 0 {
		t.Fatalf("recovery resolved a finished transaction: commit %v, abort %v", rep.ResolvedCommit, rep.ResolvedAbort)
	}
	if !srv2.IsLinked("/d/f.bin") {
		t.Fatal("a committed link was lost in the restart")
	}
}

// TestFreshOpenCreatesTheSchemaInOneCommit: a fresh repository gets its four
// tables, declared as the DDL below declares them, in one logged commit. One
// an older release left half-created by a crash gets the tables it lacks at
// its next open, and keeps the rows of those it has.
func TestFreshOpenCreatesTheSchemaInOneCommit(t *testing.T) {
	srv, _, _ := newServer(t)
	commits := 0
	if err := srv.Repo().Log().Scan(1, wal.NilLSN, func(r wal.Record) bool {
		if r.Type == wal.RecCommit {
			commits++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if commits != 1 {
		t.Fatalf("a fresh open logged %d commits, want 1", commits)
	}
	ddl := []string{
		`CREATE TABLE dlfm_files (path VARCHAR PRIMARY KEY, mode VARCHAR NOT NULL, recovery BOOLEAN NOT NULL,
			token_ttl INT, orig_uid INT NOT NULL, orig_mode INT NOT NULL, cur_version INT NOT NULL)`,
		`CREATE TABLE dlfm_updates (path VARCHAR PRIMARY KEY, open_id INT NOT NULL)`,
		`CREATE TABLE dlfm_pending_archive (path VARCHAR PRIMARY KEY, version INT NOT NULL, state_id INT NOT NULL)`,
		`CREATE TABLE dlfm_replicas (path VARCHAR PRIMARY KEY, mode VARCHAR NOT NULL, recovery BOOLEAN NOT NULL,
			token_ttl INT, orig_uid INT NOT NULL, orig_mode INT NOT NULL, cur_version INT NOT NULL, mtime_ns INT NOT NULL)`,
	}
	if len(repoSchema) != len(ddl) {
		t.Fatalf("%d repository tables, want %d", len(repoSchema), len(ddl))
	}
	for i, text := range ddl {
		st, err := sqlmini.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		want := st.(*sqlmini.CreateTableStmt)
		tbl, err := srv.Repo().Table(want.Name)
		if err != nil || repoSchema[i].table != want.Name || !reflect.DeepEqual(tbl.Columns, want.Columns) {
			t.Fatalf("table %d: %s declared as %+v (%v), want %s %+v", i, repoSchema[i].table, tbl, err, want.Name, want.Columns)
		}
	}

	linkCommitted(t, srv, "/d/f.bin", "rfd")
	for _, name := range []string{"dlfm_updates", "dlfm_pending_archive", "dlfm_replicas"} {
		if _, err := srv.Repo().Exec(`DROP TABLE ` + name); err != nil {
			t.Fatal(err)
		}
	}
	srv.Kill()
	srv2, _ := reopen(t, srv, srv.cfg)
	for _, tbl := range repoSchema {
		if _, err := srv2.Repo().Table(tbl.table); err != nil {
			t.Fatalf("the reopen did not recreate %s: %v", tbl.table, err)
		}
	}
	if !srv2.IsLinked("/d/f.bin") {
		t.Fatal("a committed link was lost in the reopen")
	}
}

// TestCloseCountsCheckpointFailure: Close's final checkpoint is best effort —
// the log alone suffices — so a failed one is counted and Close still
// closes the log without an error.
func TestCloseCountsCheckpointFailure(t *testing.T) {
	srv, _, _ := newServer(t)
	// A directory where repo.snap belongs: the snapshot's atomic replace
	// cannot rename over it.
	snap := filepath.Join(srv.cfg.RepoDir, "repo.snap")
	if err := os.Remove(snap); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(snap, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := srv.Metrics().Counter("dlfm.repo.close_checkpoint_failures").Value(); got != 1 {
		t.Fatalf("repo.close_checkpoint_failures = %d, want 1", got)
	}
}

func TestOpenRequiresRepoDir(t *testing.T) {
	srv, _, err := Open(Config{Name: "fs1", Phys: fs.New(), Archive: newArchive(t), Host: newFakeHost(), TokenKey: []byte("k")})
	if err == nil {
		srv.Kill()
		t.Fatal("Open without RepoDir started a server")
	}
	if !strings.Contains(err.Error(), "RepoDir") {
		t.Fatalf("error does not name RepoDir: %v", err)
	}
}

// TestRestore drives the file half of a coordinated restore: one call with
// the state id and the link set the restored database references.
func TestRestore(t *testing.T) {
	rdd := datalink.ColumnOptions{Mode: datalink.RDD, Recovery: true}
	uidMode := func(t *testing.T, phys *fs.FS, path string) (fs.UID, fs.FileMode) {
		t.Helper()
		ino, err := phys.Lookup(path)
		if err != nil {
			t.Fatal(err)
		}
		attr, _ := phys.Getattr(ino)
		return attr.UID, attr.Mode
	}
	t.Run("dissolves and relinks", func(t *testing.T) {
		srv, phys, host := newServer(t)
		linkCommitted(t, srv, "/d/f.bin", "rdd")
		seedFile(t, phys, "/d/keep.bin", "k")
		if err := srv.Restore(host.state, map[string]datalink.ColumnOptions{"/d/keep.bin": rdd}); err != nil {
			t.Fatalf("restore: %v", err)
		}
		if srv.IsLinked("/d/f.bin") || !srv.IsLinked("/d/keep.bin") {
			t.Fatalf("linked %v, want only keep.bin", srv.LinkedPaths())
		}
		if uid, _ := uidMode(t, phys, "/d/f.bin"); uid == srv.UID() {
			t.Fatal("dissolved file still taken over")
		}
		if uid, _ := uidMode(t, phys, "/d/keep.bin"); uid != srv.UID() {
			t.Fatal("relinked file not taken over")
		}
	})
	// A file linked after the state id has no version at it: it is dissolved
	// as it stands, never rewound.
	t.Run("dissolves without rewinding", func(t *testing.T) {
		srv, phys, host := newServer(t)
		before := host.state
		host.state += 4
		linkCommitted(t, srv, "/d/f.bin", "rdd")
		commitVersion(t, srv, phys, "/d/f.bin", []byte("v1"))
		if err := srv.Restore(before, nil); err != nil {
			t.Fatalf("restore to a state before the link: %v", err)
		}
		if srv.IsLinked("/d/f.bin") {
			t.Fatal("a file linked after the state id is still linked")
		}
		if uid, mode := uidMode(t, phys, "/d/f.bin"); uid != owner || mode != 0o644 {
			t.Fatalf("dissolved file uid %d mode %o, want %d 0644", uid, mode, owner)
		}
		if data, _ := phys.ReadFile("/d/f.bin"); string(data) != "v1" {
			t.Fatalf("dissolved file reads %q, want it as it stood", data)
		}
	})
	t.Run("skips non-recovery files", func(t *testing.T) {
		srv, phys, host := newServer(t)
		const hostTxn = 600
		rff := datalink.ColumnOptions{Mode: datalink.RFF, Recovery: false}
		srv.LinkFile(hostTxn, "/d/f.bin", rff)
		srv.PrepareXRM(hostTxn)
		srv.CommitXRM(hostTxn)
		if err := srv.Restore(host.state, map[string]datalink.ColumnOptions{"/d/f.bin": rff}); err != nil {
			t.Fatalf("restore with no recovery files: %v", err)
		}
		if data, _ := phys.ReadFile("/d/f.bin"); string(data) != "v0" || !srv.IsLinked("/d/f.bin") {
			t.Fatalf("non-recovery file touched: %q, linked %v", data, srv.LinkedPaths())
		}
	})
	// A file relinked while it is still taken over gets the at-rest state
	// the next close sets.
	t.Run("relink matches the next close", func(t *testing.T) {
		const path = "/d/g.bin"
		for _, mode := range []datalink.ControlMode{datalink.RFD, datalink.RDD} {
			srv, phys, host := newServer(t)
			seedFile(t, phys, path, "g0")
			ino, _ := phys.Lookup(path)
			phys.Chown(ino, rootCred, srv.UID())
			phys.Chmod(ino, rootCred, 0o600)
			if err := srv.Restore(host.state, map[string]datalink.ColumnOptions{path: {Mode: mode, Recovery: true}}); err != nil {
				t.Fatal(err)
			}
			relinked := observeAtRest(t, srv, phys, path)
			commitVersion(t, srv, phys, path, []byte("g1"))
			closed := observeAtRest(t, srv, phys, path)
			if relinked.uid != closed.uid || relinked.mode != closed.mode {
				t.Errorf("%s: re-link left uid %d mode %o, the next close uid %d mode %o",
					mode, relinked.uid, relinked.mode, closed.uid, closed.mode)
			}
		}
	})
}

func TestAgentModel(t *testing.T) {
	srv, _, _ := newServer(t)
	a1 := srv.ConnectAgent()
	a2 := srv.ConnectAgent()
	if a1.ID() == a2.ID() {
		t.Fatal("agents share an id")
	}
	if srv.AgentCount() != 2 {
		t.Fatalf("agent count = %d", srv.AgentCount())
	}
	if a1.Server() != srv {
		t.Fatal("agent server mismatch")
	}
}

func TestRemoveRenameCheck(t *testing.T) {
	srv, _, _ := newServer(t)
	linkCommitted(t, srv, "/d/f.bin", "rff")
	resp, _ := srv.Upcall(upcall.Request{Op: upcall.OpCheckRemove, Path: "/d/f.bin"})
	if resp.OK || resp.Code != upcall.CodeIntegrity {
		t.Fatalf("remove check = %+v", resp)
	}
	resp, _ = srv.Upcall(upcall.Request{Op: upcall.OpCheckRemove, Path: "/d/other.bin"})
	if !resp.OK {
		t.Fatalf("remove of unlinked = %+v", resp)
	}
	resp, _ = srv.Upcall(upcall.Request{Op: upcall.OpCheckRename, Path: "/d/x.bin", NewPath: "/d/f.bin"})
	if resp.OK {
		t.Fatal("rename onto linked file allowed")
	}
}

func TestBadTokenRejectedAtValidate(t *testing.T) {
	srv, _, _ := newServer(t)
	linkCommitted(t, srv, "/d/f.bin", "rdd")
	resp, _ := srv.Upcall(upcall.Request{Op: upcall.OpValidateToken, Path: "/d/f.bin", Token: "w:1:forged", UID: 9})
	if resp.OK || resp.Code != upcall.CodeBadToken {
		t.Fatalf("forged token = %+v", resp)
	}
	if !strings.Contains(resp.Err, "token") {
		t.Fatalf("err = %q", resp.Err)
	}
}

// A token read of an idle rdd file — the open that admits the token and takes
// the reader entry, and the close that drops it — is the daemon's whole share
// of the hot read path. The budget keeps it folded and keeps the Sync
// bookkeeping from growing a per-open container again.
func TestReadOpenAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	srv, _, _ := newServer(t)
	linkCommitted(t, srv, "/d/f.bin", "rdd")
	open := upcall.Request{Op: upcall.OpReadOpen, Path: "/d/f.bin", UID: 9,
		Token: srv.Authority().Issue(token.Read, "/d/f.bin")}
	n := testing.AllocsPerRun(200, func() {
		resp, err := srv.Upcall(open)
		if err != nil || !resp.OK {
			t.Fatalf("read open: %+v, %v", resp, err)
		}
		resp, err = srv.Upcall(upcall.Request{Op: upcall.OpClose, OpenID: resp.OpenID})
		if err != nil || !resp.OK {
			t.Fatalf("close: %+v, %v", resp, err)
		}
	})
	const budget = 10 // 8 measured: the token check, the file row lookup, the open and its sync entry
	t.Logf("read_open + close: %.0f mallocs", n)
	if n > budget {
		t.Errorf("read_open + close: %.0f mallocs, budget %d", n, budget)
	}
	if srv.OpenCount() != 0 {
		t.Fatalf("%d opens left", srv.OpenCount())
	}
}

// The open admits the token it carries before anything else: the verdict on
// the token and on the open is one response.
func TestOpenAdmitsItsOwnToken(t *testing.T) {
	srv, _, _ := newServer(t)
	linkCommitted(t, srv, "/d/f.bin", "rdd")
	open := func(op upcall.Op, uid int32, tok string) upcall.Response {
		t.Helper()
		resp, err := srv.Upcall(upcall.Request{Op: op, Path: "/d/f.bin", UID: uid, Token: tok, Write: op == upcall.OpWriteOpen})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	read := srv.Authority().Issue(token.Read, "/d/f.bin")
	for _, op := range []upcall.Op{upcall.OpReadOpen, upcall.OpWriteOpen} {
		if resp := open(op, 9, "r:1:forged"); resp.OK || resp.Code != upcall.CodeBadToken {
			t.Fatalf("%s with a forged token = %+v, want CodeBadToken", op, resp)
		}
		if resp := open(op, 9, ""); resp.OK || resp.Code != upcall.CodePermission {
			t.Fatalf("tokenless %s with no entry = %+v, want CodePermission", op, resp)
		}
	}
	if srv.OpenCount() != 0 || srv.TokenEntryCount() != 0 {
		t.Fatalf("refused opens left %d opens, %d token entries", srv.OpenCount(), srv.TokenEntryCount())
	}
	// A read token does not admit an update — and says so as a token verdict.
	if resp := open(upcall.OpWriteOpen, 9, read); resp.OK || resp.Code != upcall.CodeBadToken {
		t.Fatalf("write_open with a read token = %+v, want CodeBadToken", resp)
	}
	resp := open(upcall.OpReadOpen, 9, read)
	if !resp.OK {
		t.Fatalf("read_open with its token = %+v", resp)
	}
	if n, _ := srv.SyncEntries("/d/f.bin"); n != 1 || srv.TokenEntryCount() != 1 {
		t.Fatalf("readers=%d token entries=%d, want 1 and 1", n, srv.TokenEntryCount())
	}
	// The entry it left covers the uid, not the world (§4.1).
	twin := open(upcall.OpReadOpen, 9, "")
	if !twin.OK {
		t.Fatalf("same-uid tokenless read_open = %+v", twin)
	}
	if resp := open(upcall.OpReadOpen, 10, ""); resp.OK || resp.Code != upcall.CodePermission {
		t.Fatalf("other-uid tokenless read_open = %+v, want CodePermission", resp)
	}
	for _, id := range []uint64{resp.OpenID, twin.OpenID, twin.OpenID} { // a repeated close must not drive the count negative
		srv.Upcall(upcall.Request{Op: upcall.OpClose, OpenID: id})
	}
	if n, writer := srv.SyncEntries("/d/f.bin"); n != 0 || writer || srv.OpenCount() != 0 {
		t.Fatalf("after closes: readers=%d writer=%v opens=%d", n, writer, srv.OpenCount())
	}
}
