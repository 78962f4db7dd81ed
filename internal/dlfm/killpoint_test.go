package dlfm

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"datalinks/internal/archive"
	"datalinks/internal/fs"
	"datalinks/internal/sqlmini"
	"datalinks/internal/upcall"
)

// Kill points around the archive put that is part of a close. A close
// returns only after its version is in the archive, so an acknowledged
// version survives a whole-process kill; a kill before the put finished
// leaves a close that never returned.

// heldHost is a fakeHost whose MetaUpdate, once armed, parks after the host
// commit: the close it serves is past its commit point and has not begun
// its archive put. With atPrepare it parks as soon as the close's
// sub-transaction has prepared, before the participant hears an outcome,
// and the host has logged its commit only with decide.
type heldHost struct {
	*fakeHost
	held, release     chan struct{}
	atPrepare, decide bool
}

func (h *heldHost) MetaUpdate(server, path string, size int64, mtime time.Time, sub sqlmini.XRM) (uint64, error) {
	if h.atPrepare && h.held != nil {
		h.nextTxn++
		if err := sub.PrepareXRM(h.nextTxn); err != nil {
			return 0, err
		}
		if h.decide {
			h.state++
			h.outcomes[h.nextTxn] = true
		}
		close(h.held)
		<-h.release
		return h.state, nil
	}
	id, err := h.fakeHost.MetaUpdate(server, path, size, mtime, sub)
	if h.held != nil {
		close(h.held)
		<-h.release
	}
	return id, err
}

// openKillPoint opens a server over fresh repository and archive
// directories with /d/f.bin linked (v0 archived) and returns its config and
// archive directory.
func openKillPoint(t *testing.T, host Host) (*Server, Config, string) {
	t.Helper()
	root := t.TempDir()
	phys := fs.New()
	phys.MkdirAll("/d", rootCred, 0o777)
	cfg, _ := coldConfig(t, phys, root+"/repo", root+"/archive")
	cfg.Host = host
	srv, _, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Kill)
	t.Cleanup(cfg.Archive.Close)
	seedFile(t, phys, "/d/f.bin", "v0")
	linkCommitted(t, srv, "/d/f.bin", "rfd")
	return srv, cfg, root + "/archive"
}

// reopenArchive opens a new archive store over the directory of a crashed
// one, as the restarted process does.
func reopenArchive(t *testing.T, dir string) *archive.Store {
	t.Helper()
	arch, err := archive.NewTiered(0, nil, archive.TierConfig{Dir: dir})
	if err != nil {
		t.Fatalf("reopen archive: %v", err)
	}
	t.Cleanup(arch.Close)
	return arch
}

// TestReturnedCloseSurvivesAColdKill: once a close has returned, a kill of
// the whole process — DLFM, archive and the RAM file system — loses nothing:
// the cold start installs the closed version. The version is 4 MiB of new
// bytes, so an archive put that ran after the close returned would still be
// hashing and storing them at the kill.
func TestReturnedCloseSurvivesAColdKill(t *testing.T) {
	srv, cfg, archDir := openKillPoint(t, newFakeHost())
	v1 := make([]byte, 4<<20)
	rand.New(rand.NewSource(1)).Read(v1)
	commitVersion(t, srv, cfg.Phys, "/d/f.bin", v1)
	srv.Kill()
	cfg.Archive.Crash()

	cfg.Phys = fs.New()
	cfg.Archive = reopenArchive(t, archDir)
	srv2, rep := reopen(t, srv, cfg)
	if len(rep.ReconciledVersions) != 0 {
		t.Fatalf("the cold start walked back an acknowledged version: %v", rep.ReconciledVersions)
	}
	if got, err := cfg.Phys.ReadFile("/d/f.bin"); err != nil || !bytes.Equal(got, v1) {
		t.Fatalf("cold start serves %d bytes (%v); want v1's %d", len(got), err, len(v1))
	}
	if fi, _ := srv2.lookupFile("/d/f.bin"); fi.version != 1 {
		t.Fatalf("cur_version = %d, want 1", fi.version)
	}
}

// killInTheClose closes a write of v1 and kills the process — DLFM and
// archive — where host parks the close: after its commit point but before
// its archive put, or after its prepare. It returns the archive directory
// and whether the close was acknowledged.
func killInTheClose(t *testing.T, host *heldHost) (*Server, Config, string, bool) {
	t.Helper()
	srv, cfg, archDir := openKillPoint(t, host)
	phys := cfg.Phys
	id := openWrite(t, srv, "/d/f.bin", owner)
	phys.WriteFile("/d/f.bin", []byte("v1"))
	host.held, host.release = make(chan struct{}), make(chan struct{})
	ino, _ := phys.Lookup("/d/f.bin")
	attr, _ := phys.Getattr(ino)
	acked := make(chan bool, 1)
	go func() {
		resp, err := srv.Upcall(upcall.Request{Op: upcall.OpClose, OpenID: id,
			Size: attr.Size, Mtime: attr.Mtime.UnixNano()})
		acked <- err == nil && resp.OK
	}()
	<-host.held
	srv.Kill()
	cfg.Archive.Crash()
	close(host.release)
	return srv, cfg, archDir, <-acked
}

// TestKillBeforeTheArchivePut: a kill between a close's commit point and
// the end of its archive put leaves a close that never returned. A cold
// start, whose file system died too, walks cur_version back to the archived
// v0; a warm start archives v1 from the live file.
func TestKillBeforeTheArchivePut(t *testing.T) {
	t.Run("cold", func(t *testing.T) {
		srv, cfg, archDir, acked := killInTheClose(t, &heldHost{fakeHost: newFakeHost()})
		if acked {
			t.Fatal("a close killed before its archive put was acknowledged")
		}
		cfg.Phys = fs.New()
		cfg.Archive = reopenArchive(t, archDir)
		_, rep := reopen(t, srv, cfg)
		if want := "/d/f.bin: v1 -> v0"; len(rep.ReconciledVersions) != 1 || rep.ReconciledVersions[0] != want {
			t.Fatalf("reconciled versions = %v, want [%s]", rep.ReconciledVersions, want)
		}
		if got, err := cfg.Phys.ReadFile("/d/f.bin"); err != nil || string(got) != "v0" {
			t.Fatalf("cold start serves %q, %v; want v0", got, err)
		}
	})
	t.Run("warm", func(t *testing.T) {
		srv, cfg, archDir, acked := killInTheClose(t, &heldHost{fakeHost: newFakeHost()})
		if acked {
			t.Fatal("a close killed before its archive put was acknowledged")
		}
		cfg.Archive = reopenArchive(t, archDir)
		_, rep := reopen(t, srv, cfg)
		if len(rep.ArchivedVersions) != 1 || rep.ArchivedVersions[0] != "/d/f.bin@v1" {
			t.Fatalf("archived versions = %v, want [/d/f.bin@v1]", rep.ArchivedVersions)
		}
		e, err := cfg.Archive.Latest("fs1", "/d/f.bin")
		if err != nil || e.Version != 1 || string(bytesOf(t, e)) != "v1" {
			t.Fatalf("newest archived = v%d (%v), want v1 with the live file's bytes", e.Version, err)
		}
		if got, err := cfg.Phys.ReadFile("/d/f.bin"); err != nil || string(got) != "v1" {
			t.Fatalf("warm start serves %q, %v; want v1", got, err)
		}
	})
}

// TestKillAfterTheClosePrepared: a close killed once its repository
// sub-transaction has prepared is resolved at the warm restart from the
// prepare record alone. When the host logged its commit, the version counts
// and the live file is archived as v1; when the outcome is unknown, the
// close is presumed aborted and rolled back, its in-flight bytes moved to
// quarantine.
func TestKillAfterTheClosePrepared(t *testing.T) {
	for _, committed := range []bool{true, false} {
		t.Run(fmt.Sprintf("committed=%v", committed), func(t *testing.T) {
			host := &heldHost{fakeHost: newFakeHost(), atPrepare: true, decide: committed}
			srv, cfg, archDir, acked := killInTheClose(t, host)
			if acked {
				t.Fatal("a close killed after its prepare was acknowledged")
			}
			cfg.Archive = reopenArchive(t, archDir)
			srv2, rep := reopen(t, srv, cfg)
			resolved := rep.ResolvedAbort
			if committed {
				resolved = rep.ResolvedCommit
			}
			if len(resolved) != 1 || len(rep.ResolvedCommit)+len(rep.ResolvedAbort) != 1 {
				t.Fatalf("resolved commit %v, abort %v; want the close's host txn as committed=%v",
					rep.ResolvedCommit, rep.ResolvedAbort, committed)
			}
			if left := srv2.UpdatesInFlight(); len(left) != 0 {
				t.Fatalf("update entries after the restart: %v", left)
			}
			want, quarantined := "v1", 0
			if !committed {
				want, quarantined = "v0", 1
			}
			if fi, _ := srv2.lookupFile("/d/f.bin"); fmt.Sprintf("v%d", fi.version) != want {
				t.Fatalf("cur_version = %d, want %s", fi.version, want)
			}
			e, err := cfg.Archive.Latest("fs1", "/d/f.bin")
			if err != nil || fmt.Sprintf("v%d", e.Version) != want || string(bytesOf(t, e)) != want {
				t.Fatalf("newest archived = v%d (%v), want %s", e.Version, err, want)
			}
			if got, err := cfg.Phys.ReadFile("/d/f.bin"); err != nil || string(got) != want {
				t.Fatalf("the file reads %q, %v; want %s", got, err, want)
			}
			q := srv2.QuarantinedFiles()
			if len(q) != quarantined {
				t.Fatalf("quarantine holds %v, want %d copies", q, quarantined)
			}
			if quarantined == 1 {
				if got, err := cfg.Phys.ReadFile(DefaultQuarantineDir + "/" + q[0]); err != nil || string(got) != "v1" {
					t.Fatalf("the quarantine copy reads %q, %v; want the in-flight v1", got, err)
				}
			}
		})
	}
}

// TestFailedArchivePutKeepsTheCommit: a close whose archive put fails
// answers "committed but not archived" and does not roll the file back. It
// leaves a pending-archive row with the commit's state id — the newest
// failed close's, when puts keep failing — and the next restart archives
// the version under that id, not the host's current one.
func TestFailedArchivePutKeepsTheCommit(t *testing.T) {
	host := newFakeHost()
	srv, cfg, archDir := openKillPoint(t, host)
	phys := cfg.Phys
	cfg.Archive.Crash() // the archive dies alone: every put fails
	var commitState uint64
	for v := int64(1); v <= 2; v++ {
		content := fmt.Sprintf("v%d", v)
		id := openWrite(t, srv, "/d/f.bin", owner)
		phys.WriteFile("/d/f.bin", []byte(content))
		resp := closeFile(t, srv, phys, "/d/f.bin", id)
		if resp.OK || !strings.Contains(resp.Err, "committed but not archived") ||
			!strings.Contains(resp.Err, ErrNotArchived.Error()) || strings.Contains(resp.Err, "pending-archive row") {
			t.Fatalf("close of %s = %+v, want a committed-but-not-archived rejection", content, resp)
		}
		commitState = host.state
		if got, err := phys.ReadFile("/d/f.bin"); err != nil || string(got) != content {
			t.Fatalf("file holds %q, %v after the close; want the committed %s", got, err, content)
		}
		if fi, _ := srv.lookupFile("/d/f.bin"); int64(fi.version) != v {
			t.Fatalf("cur_version = %d, want %d", fi.version, v)
		}
		row, err := srv.repo.QueryRow(`SELECT version, state_id FROM dlfm_pending_archive WHERE path = ?`, sqlmini.Str("/d/f.bin"))
		if err != nil || row[0].I != v || uint64(row[1].I) != commitState {
			t.Fatalf("pending row = %v, %v; want version %d at state %d", row, err, v, commitState)
		}
	}

	host.state += 5 // later host transactions
	srv.Kill()
	cfg.Archive = reopenArchive(t, archDir)
	srv2, rep := reopen(t, srv, cfg)
	if len(rep.ArchivedVersions) != 1 || rep.ArchivedVersions[0] != "/d/f.bin@v2" {
		t.Fatalf("archived versions = %v, want [/d/f.bin@v2]", rep.ArchivedVersions)
	}
	e, err := cfg.Archive.Latest("fs1", "/d/f.bin")
	if err != nil || e.Version != 2 || e.StateID != commitState || string(bytesOf(t, e)) != "v2" {
		t.Fatalf("newest archived = v%d at state %d (%v), want v2 at the commit's state %d", e.Version, e.StateID, err, commitState)
	}
	if pend, err := srv2.Repo().Table("dlfm_pending_archive"); err != nil || pend.Len() != 0 {
		t.Fatalf("pending rows after the restart: %v", err)
	}
}
