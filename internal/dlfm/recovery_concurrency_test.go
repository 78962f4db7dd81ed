package dlfm

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"datalinks/internal/archive"
	"datalinks/internal/fs"
	"datalinks/internal/sqlmini"
	"datalinks/internal/token"
	"datalinks/internal/upcall"
)

// lockedHost is a goroutine-safe Host for tests that drive parallel commits.
type lockedHost struct {
	mu    sync.Mutex
	inner *fakeHost
}

func (h *lockedHost) MetaUpdate(server, path string, size int64, mtime time.Time, sub sqlmini.XRM) (uint64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.inner.MetaUpdate(server, path, size, mtime, sub)
}

func (h *lockedHost) TxnOutcome(txnID uint64) (bool, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.inner.TxnOutcome(txnID)
}

func (h *lockedHost) StateID() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.inner.StateID()
}

// writeOpenErr is openWrite without t.Fatal, usable from worker goroutines.
func writeOpenErr(srv *Server, path string, uid fs.UID) (uint64, error) {
	tok := srv.Authority().Issue(token.Write, path)
	resp, err := srv.Upcall(upcall.Request{Op: upcall.OpValidateToken, Path: path, Token: tok, UID: int32(uid)})
	if err != nil || !resp.OK {
		return 0, fmt.Errorf("validate %s: %+v %v", path, resp, err)
	}
	resp, err = srv.Upcall(upcall.Request{Op: upcall.OpWriteOpen, Path: path, UID: int32(uid), Write: true})
	if err != nil || !resp.OK {
		return 0, fmt.Errorf("write open %s: %+v %v", path, resp, err)
	}
	return resp.OpenID, nil
}

// closeFileErr is closeFile without t.Fatal.
func closeFileErr(srv *Server, phys *fs.FS, path string, openID uint64) error {
	ino, err := phys.Lookup(path)
	if err != nil {
		return err
	}
	attr, err := phys.Getattr(ino)
	if err != nil {
		return err
	}
	resp, err := srv.Upcall(upcall.Request{
		Op: upcall.OpClose, Path: path, OpenID: openID,
		Size: attr.Size, Mtime: attr.Mtime.UnixNano(),
	})
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("close %s rejected: %+v", path, resp)
	}
	return nil
}

// TestCrashRecoveryUnderConcurrentUpdates crashes the DLFM while several
// in-place updates are open in parallel and the background archiver is
// still copying previously committed versions. Restart recovery must bring
// every file back to its last committed content: in-flight updates roll
// back, pending archives complete.
func TestCrashRecoveryUnderConcurrentUpdates(t *testing.T) {
	phys := fs.New()
	phys.MkdirAll("/d", fs.Cred{UID: fs.Root}, 0o777)
	// A slow archive device keeps archive jobs of phase A in flight while
	// the crash hits.
	arch := archive.New(3*time.Millisecond, nil)
	host := &lockedHost{inner: newFakeHost()}
	cfg := Config{
		Name:     "fs1",
		Phys:     phys,
		Archive:  arch,
		Host:     host,
		TokenKey: []byte("k"),
		OpenWait: 5 * time.Second,
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const files = 6
	committed := make([][]byte, files)
	paths := make([]string, files)
	for i := 0; i < files; i++ {
		paths[i] = fmt.Sprintf("/d/f%d.bin", i)
		seedFile(t, phys, paths[i], fmt.Sprintf("v0 of file %d", i))
		linkCommitted(t, srv, paths[i], "rfd")
		committed[i] = []byte(fmt.Sprintf("v0 of file %d", i))
	}

	// Phase A: parallel committed updates. Each file gets a new committed
	// version; the slow archiver copies them in the background.
	var wg sync.WaitGroup
	errs := make(chan error, files)
	for i := 0; i < files; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, err := writeOpenErr(srv, paths[i], owner)
			if err != nil {
				errs <- err
				return
			}
			next := []byte(fmt.Sprintf("committed v1 of file %d, longer than v0", i))
			if err := phys.WriteFile(paths[i], next); err != nil {
				errs <- err
				return
			}
			if err := closeFileErr(srv, phys, paths[i], id); err != nil {
				errs <- err
				return
			}
			committed[i] = next
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Phase B: open a new update on half the files and scribble without
	// closing — these are the in-flight transactions the crash will catch.
	inFlight := map[string]bool{}
	errs2 := make(chan error, files)
	for i := 0; i < files; i += 2 {
		inFlight[paths[i]] = true
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, err := writeOpenErr(srv, paths[i], owner)
			if err != nil {
				errs2 <- err
				return
			}
			_ = id // never closed: the crash interrupts this update
			if err := phys.WriteFile(paths[i], []byte(fmt.Sprintf("torn in-flight garbage %d", i))); err != nil {
				errs2 <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs2)
	for err := range errs2 {
		t.Fatal(err)
	}

	// Crash while phase-A archive jobs may still be in flight, then recover.
	durable := srv.CrashRepo()
	srv2, rep, err := Recover(cfg, durable)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer srv2.Close()

	// Every file is back at its last committed content.
	for i := 0; i < files; i++ {
		data, err := phys.ReadFile(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, committed[i]) {
			t.Fatalf("%s after recovery = %q, want %q", paths[i], data, committed[i])
		}
		vs := arch.Versions("fs1", paths[i])
		if len(vs) == 0 {
			t.Fatalf("%s has no archived versions after recovery", paths[i])
		}
		if !bytes.Equal(bytesOf(t, vs[len(vs)-1]), committed[i]) {
			t.Fatalf("%s newest archive = %q, want committed %q", paths[i], bytesOf(t, vs[len(vs)-1]), committed[i])
		}
	}
	// The interrupted updates were rolled back by recovery.
	if len(rep.RestoredFiles) != len(inFlight) {
		t.Fatalf("recovery restored %v, want the %d in-flight paths %v", rep.RestoredFiles, len(inFlight), inFlight)
	}
	for _, p := range rep.RestoredFiles {
		if !inFlight[p] {
			t.Fatalf("recovery restored %s which had no in-flight update", p)
		}
	}
	if got := srv2.UpdatesInFlight(); len(got) != 0 {
		t.Fatalf("update entries survive recovery: %v", got)
	}
	// The recovered server accepts a fresh committed update on every file.
	for i := 0; i < files; i++ {
		id, err := writeOpenErr(srv2, paths[i], owner)
		if err != nil {
			t.Fatalf("post-recovery open %s: %v", paths[i], err)
		}
		next := []byte(fmt.Sprintf("post-recovery v2 of file %d", i))
		if err := phys.WriteFile(paths[i], next); err != nil {
			t.Fatal(err)
		}
		if err := closeFileErr(srv2, phys, paths[i], id); err != nil {
			t.Fatalf("post-recovery close %s: %v", paths[i], err)
		}
		data, _ := phys.ReadFile(paths[i])
		if !bytes.Equal(data, next) {
			t.Fatalf("post-recovery update lost on %s", paths[i])
		}
	}
	srv2.WaitArchives()
}
