package engine

import (
	"errors"
	"testing"
	"time"

	"datalinks/internal/dlfm"
	"datalinks/internal/fs"
	"datalinks/internal/fsyncer"
	"datalinks/internal/sqlmini"
	"datalinks/internal/token"
	"datalinks/internal/upcall"
)

// crashHost is the engine as a DLFM sees it, with one close armed to kill
// the member inside that close's two-phase commit. The armed close never
// returns to its caller while the test runs: the member's process is gone.
type crashHost struct {
	*Engine
	srv           *dlfm.Server
	atCommit      bool // die at phase 2, after the host's commit record; else at prepare
	armed         bool
	hostTxn       uint64
	held, release chan struct{}
}

func (h *crashHost) MetaUpdate(server, path string, size int64, mtime time.Time, sub sqlmini.XRM) (uint64, error) {
	if !h.armed {
		return h.Engine.MetaUpdate(server, path, size, mtime, sub)
	}
	state, err := h.Engine.MetaUpdate(server, path, size, mtime, &dyingXRM{XRM: sub, h: h})
	close(h.held)
	<-h.release
	return state, err
}

// dyingXRM passes a sub-transaction's 2PC through until its member dies.
type dyingXRM struct {
	sqlmini.XRM
	h *crashHost
}

var errMemberDied = errors.New("member died")

func (d *dyingXRM) PrepareXRM(id uint64) error {
	d.h.hostTxn = id
	if err := d.XRM.PrepareXRM(id); err != nil {
		return err
	}
	if !d.h.atCommit {
		d.h.srv.Kill()
		return errMemberDied
	}
	return nil
}

func (d *dyingXRM) CommitXRM(uint64) error {
	d.h.srv.Kill()
	return errMemberDied
}

func (d *dyingXRM) AbortXRM(uint64) error { return errMemberDied }

// writeRig is a host with one RFD file linked and a DLFM over a repository
// directory of its own, under the given fsync policy.
func writeRig(t *testing.T, host func(*Engine) dlfm.Host, fsync fsyncer.Policy) (*rig, dlfm.Config) {
	t.Helper()
	eng, err := Open(sqlmini.Options{LockTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	phys := fs.New()
	phys.MkdirAll("/d", fs.Cred{UID: fs.Root}, 0o777)
	cfg := dlfm.Config{
		Name:      "fs1",
		Phys:      phys,
		Archive:   newArchive(t),
		Host:      host(eng),
		TokenKey:  []byte("shared-key"),
		RepoDir:   t.TempDir(),
		RepoFsync: fsync,
	}
	srv, _, err := dlfm.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Kill)
	eng.AttachFileServer(srv, cfg.TokenKey, 0)
	r := &rig{db: eng.DB(), eng: eng, srv: srv, phys: phys}
	r.seed(t, "/d/f.bin", "v0")
	r.db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES, doc_size BIGINT, doc_mtime TIMESTAMP)`)
	r.db.MustExec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/f.bin'), 0, NULL)`)
	return r, cfg
}

// update runs one in-place update of /d/f.bin through the upcalls DLFS
// sends — write open, write, close — and returns the close's answer.
func update(t *testing.T, srv *dlfm.Server, phys *fs.FS, content string) (upcall.Response, error) {
	t.Helper()
	return srv.Upcall(openAndWrite(t, srv, phys, content))
}

// openAndWrite opens /d/f.bin for update and writes content, returning the
// close request that commits it.
func openAndWrite(t *testing.T, srv *dlfm.Server, phys *fs.FS, content string) upcall.Request {
	t.Helper()
	const path = "/d/f.bin"
	resp, err := srv.Upcall(upcall.Request{Op: upcall.OpWriteOpen, Path: path, UID: int32(owner), Write: true,
		Token: srv.Authority().Issue(token.Write, path)})
	if err != nil || !resp.OK {
		t.Fatalf("write open: %+v, %v", resp, err)
	}
	if err := phys.WriteFile(path, []byte(content)); err != nil {
		t.Fatal(err)
	}
	ino, _ := phys.Lookup(path)
	attr, _ := phys.Getattr(ino)
	return upcall.Request{Op: upcall.OpClose, OpenID: resp.OpenID, Size: attr.Size, Mtime: attr.Mtime.UnixNano()}
}

// A member that dies inside a close's two-phase commit, with the host alive,
// resolves the sub-transaction at its restart through the host's
// TxnOutcome: past the host's commit record the close committed, and the
// restarted member serves the new version; at its prepare, before the
// commit record, the close aborted and the member comes back at the
// version before.
func TestOutcomeResolvesAMemberCrashInsideACommit(t *testing.T) {
	for _, atCommit := range []bool{true, false} {
		name := "before the commit record"
		if atCommit {
			name = "after the commit record"
		}
		t.Run(name, func(t *testing.T) {
			h := &crashHost{atCommit: atCommit, held: make(chan struct{}), release: make(chan struct{})}
			r, cfg := writeRig(t, func(e *Engine) dlfm.Host { h.Engine = e; return h }, fsyncer.PolicyGroup)
			h.srv = r.srv
			if resp, err := update(t, r.srv, r.phys, "v1 committed"); err != nil || !resp.OK {
				t.Fatalf("close v1: %+v, %v", resp, err)
			}
			_, v1, _, err := r.srv.FileMeta("/d/f.bin")
			if err != nil {
				t.Fatal(err)
			}

			h.armed = true
			close2 := openAndWrite(t, r.srv, r.phys, "v2 in the crash")
			zombie := make(chan struct{})
			go func() {
				defer close(zombie)
				r.srv.Upcall(close2)
			}()
			// The dead member's close stays parked until the test is done
			// with everything it shares: the file system and the archive.
			defer func() { close(h.release); <-zombie }()
			<-h.held
			if r.srv.Alive() {
				t.Fatal("the member survived its crash point")
			}
			// The commit is kept for the member whose phase 2 failed; the
			// abort is not, and the member presumes it.
			if c, known := r.eng.TxnOutcome(h.hostTxn); known != atCommit || c != atCommit {
				t.Fatalf("host outcome of txn %d = %v, %v; want %v, %v", h.hostTxn, c, known, atCommit, atCommit)
			}

			cfg.Host = r.eng
			srv2, rep, err := dlfm.Open(cfg)
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			defer srv2.Kill()
			r.eng.AttachFileServer(srv2, cfg.TokenKey, 0)
			resolved, want, wantVer := rep.ResolvedAbort, "v1 committed", v1
			if atCommit {
				resolved, want, wantVer = rep.ResolvedCommit, "v2 in the crash", v1+1
			}
			if len(resolved) != 1 || resolved[0] != h.hostTxn {
				t.Fatalf("recovery resolved commit %v, abort %v; want host txn %d resolved %v",
					rep.ResolvedCommit, rep.ResolvedAbort, h.hostTxn, atCommit)
			}
			if got, err := srv2.ReadFileContent("/d/f.bin"); err != nil || string(got) != want {
				t.Fatalf("restarted member serves %q, %v; want %q", got, err, want)
			}
			if _, ver, _, err := srv2.FileMeta("/d/f.bin"); err != nil || ver != wantVer {
				t.Fatalf("restarted member at version %d, %v; want %d", ver, err, wantVer)
			}
			row, err := r.db.QueryRow(`SELECT doc_size FROM t WHERE id = 1`)
			if err != nil || row[0].I != int64(len(want)) {
				t.Fatalf("host doc_size %v, %v; want %d", row, err, len(want))
			}
			if resp, err := update(t, srv2, r.phys, "v3 after the restart"); err != nil || !resp.OK {
				t.Fatalf("close after the restart: %+v, %v", resp, err)
			}
		})
	}
}

// knownOutcomes counts the host transactions whose outcome the host still
// keeps, over every transaction id it has handed out.
func knownOutcomes(eng *Engine) int {
	probe := eng.DB().Begin()
	last := probe.ID()
	_ = probe.Abort()
	n := 0
	for id := uint64(1); id < last; id++ {
		if _, known := eng.TxnOutcome(id); known {
			n++
		}
	}
	return n
}

// The host forgets a file-update commit's outcome once the DLFM's durable
// phase 2 returned: a storm of commits leaves none behind. Under fsync none
// a returned commit can still be lost with the member's machine, so each
// one's outcome is kept, the link's among them.
func TestOutcomesForgottenAfterACommitStorm(t *testing.T) {
	for _, tc := range []struct {
		fsync   fsyncer.Policy
		commits int
		known   int
	}{
		{fsyncer.PolicyGroup, 1000, 0},
		{fsyncer.PolicyNone, 20, 21},
	} {
		t.Run(tc.fsync.String(), func(t *testing.T) {
			r, _ := writeRig(t, func(e *Engine) dlfm.Host { return e }, tc.fsync)
			_, v0, _, err := r.srv.FileMeta("/d/f.bin")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.commits; i++ {
				if resp, err := update(t, r.srv, r.phys, "v"+string(rune('a'+i%26))); err != nil || !resp.OK {
					t.Fatalf("close %d: %+v, %v", i, resp, err)
				}
			}
			if _, v, _, err := r.srv.FileMeta("/d/f.bin"); err != nil || v != v0+int64(tc.commits) {
				t.Fatalf("version %d after %d commits from %d, %v", v, tc.commits, v0, err)
			}
			if n := knownOutcomes(r.eng); n != tc.known {
				t.Fatalf("%d commits under fsync %s left %d known outcomes, want %d", tc.commits, tc.fsync, n, tc.known)
			}
		})
	}
}

// Restart recovery rebuilds no outcome a participant can no longer ask
// about: a file-update commit's record is marked, the END its durable phase
// 2 logs unmarks it, and aborts are never remembered. Under fsync none no
// END is logged, so every commit's outcome comes back. The END is unforced;
// the host log is flushed before the crash so the newest one is not lost
// with the volatile tail (that would leave its one outcome known).
func TestOutcomesForgottenAcrossRecoverHost(t *testing.T) {
	for _, tc := range []struct {
		fsync   fsyncer.Policy
		commits int
		known   int
	}{
		{fsyncer.PolicyGroup, 500, 0},
		{fsyncer.PolicyNone, 20, 21},
	} {
		t.Run(tc.fsync.String(), func(t *testing.T) {
			r, _ := writeRig(t, func(e *Engine) dlfm.Host { return e }, tc.fsync)
			for i := 0; i < tc.commits; i++ {
				if resp, err := update(t, r.srv, r.phys, "v"+string(rune('a'+i%26))); err != nil || !resp.OK {
					t.Fatalf("close %d: %+v, %v", i, resp, err)
				}
			}
			if _, err := r.eng.DB().Log().Flush(); err != nil {
				t.Fatal(err)
			}
			if err := r.eng.RecoverHost(); err != nil {
				t.Fatal(err)
			}
			if n := knownOutcomes(r.eng); n != tc.known {
				t.Fatalf("%d commits under fsync %s, then a host restart: %d known outcomes, want %d", tc.commits, tc.fsync, n, tc.known)
			}
		})
	}
}
