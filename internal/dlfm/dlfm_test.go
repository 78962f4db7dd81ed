package dlfm

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"datalinks/internal/archive"
	"datalinks/internal/datalink"
	"datalinks/internal/fs"
	"datalinks/internal/sqlmini"
	"datalinks/internal/token"
	"datalinks/internal/upcall"
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
	srv, err := New(Config{
		Name:     "fs1",
		Phys:     phys,
		Archive:  archive.New(0, nil),
		Host:     host,
		TokenKey: []byte("k"),
		OpenWait: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("new dlfm: %v", err)
	}
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
		Op: upcall.OpClose, Path: path, OpenID: openID,
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
	srv.WaitArchives()
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
	srv, err := New(Config{
		Name: "fs1", Phys: phys, Archive: archive.New(0, nil), Host: host,
		TokenKey: []byte("k"), Clock: func() time.Time { return *clock }, TokenTTL: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
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
	srv, err := New(Config{
		Name: "fs1", Phys: fs.New(), Archive: archive.New(0, nil), Host: newFakeHost(),
		TokenKey: []byte("k"), Clock: func() time.Time { return now }, TokenTTL: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
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

	durable := srv.CrashRepo()
	srv2, rep, err := Recover(Config{
		Name: "fs1", Phys: phys, Archive: srv.cfg.Archive, Host: host, TokenKey: []byte("k"),
	}, durable)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
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

	durable := srv.CrashRepo()
	srv2, rep, err := Recover(Config{
		Name: "fs1", Phys: phys, Archive: srv.cfg.Archive, Host: host, TokenKey: []byte("k"),
	}, durable)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
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

func TestCrashRecoveryPendingArchive(t *testing.T) {
	srv, phys, _ := newServer(t)
	linkCommitted(t, srv, "/d/f.bin", "rfd")
	id := openWrite(t, srv, "/d/f.bin", owner)
	phys.WriteFile("/d/f.bin", []byte("v1"))

	// Block the archiver with huge latency so the close commits but the
	// archive job hangs; then crash.
	srv.cfg.Archive.SetLatency(time.Hour)
	done := make(chan upcall.Response, 1)
	go func() {
		ino, _ := phys.Lookup("/d/f.bin")
		attr, _ := phys.Getattr(ino)
		resp, _ := srv.Upcall(upcall.Request{Op: upcall.OpClose, Path: "/d/f.bin", OpenID: id, Size: attr.Size, Mtime: attr.Mtime.UnixNano()})
		done <- resp
	}()
	resp := <-done
	if !resp.OK {
		t.Fatalf("close: %+v", resp)
	}
	// Crash while the archive job hangs; only then un-jam the device so
	// recovery can use it.
	durable := srv.CrashRepo()
	srv.cfg.Archive.SetLatency(0)
	srv2, _, err := Recover(Config{
		Name: "fs1", Phys: phys, Archive: srv.cfg.Archive, Host: newFakeHost(), TokenKey: []byte("k"),
	}, durable)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	// Whether recovery re-archived the version itself or found it already
	// completed by the dying archiver (both races are legal), the outcome
	// must be: v1 archived, no pending rows left.
	vs := srv2.cfg.Archive.Versions("fs1", "/d/f.bin")
	if len(vs) != 2 || string(bytesOf(t, vs[1])) != "v1" {
		t.Fatalf("versions after recovery = %+v", vs)
	}
	pend, err := srv2.Repo().Table("dlfm_pending_archive")
	if err != nil {
		t.Fatal(err)
	}
	if pend.Len() != 0 {
		t.Fatalf("pending-archive rows left: %d", pend.Len())
	}
}

func TestReconcileLinks(t *testing.T) {
	srv, phys, _ := newServer(t)
	linkCommitted(t, srv, "/d/f.bin", "rdd")
	seedFile(t, phys, "/d/keep.bin", "k")

	// Desired state: f.bin unlinked, keep.bin linked.
	desired := map[string]datalink.ColumnOptions{
		"/d/keep.bin": {Mode: datalink.RDD, Recovery: true},
	}
	if err := srv.ReconcileLinks(desired); err != nil {
		t.Fatalf("reconcile: %v", err)
	}
	if srv.IsLinked("/d/f.bin") {
		t.Fatal("f.bin should be dissolved")
	}
	if !srv.IsLinked("/d/keep.bin") {
		t.Fatal("keep.bin should be linked")
	}
	ino, _ := phys.Lookup("/d/f.bin")
	attr, _ := phys.Getattr(ino)
	if attr.UID == srv.UID() {
		t.Fatal("dissolved file still taken over")
	}
	ino, _ = phys.Lookup("/d/keep.bin")
	attr, _ = phys.Getattr(ino)
	if attr.UID != srv.UID() {
		t.Fatal("reconciled link not taken over")
	}
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

func TestRestoreAsOfSkipsNonRecoveryFiles(t *testing.T) {
	srv, phys, _ := newServer(t)
	// Link without recovery.
	const hostTxn = 600
	srv.LinkFile(hostTxn, "/d/f.bin", datalink.ColumnOptions{Mode: datalink.RFF, Recovery: false})
	srv.PrepareXRM(hostTxn)
	srv.CommitXRM(hostTxn)
	if err := srv.RestoreAsOf(1); err != nil {
		t.Fatalf("restore with no recovery files: %v", err)
	}
	data, _ := phys.ReadFile("/d/f.bin")
	if string(data) != "v0" {
		t.Fatalf("non-recovery file touched: %q", data)
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
		resp, err = srv.Upcall(upcall.Request{Op: upcall.OpClose, Path: "/d/f.bin", OpenID: resp.OpenID})
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
		srv.Upcall(upcall.Request{Op: upcall.OpClose, Path: "/d/f.bin", OpenID: id})
	}
	if n, writer := srv.SyncEntries("/d/f.bin"); n != 0 || writer || srv.OpenCount() != 0 {
		t.Fatalf("after closes: readers=%d writer=%v opens=%d", n, writer, srv.OpenCount())
	}
}
