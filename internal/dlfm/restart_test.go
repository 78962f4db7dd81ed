package dlfm

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"datalinks/internal/archive"
	"datalinks/internal/fs"
)

// TestRecoveryFromColdStartedArchive: the archive process restarts too — the
// original store object is gone and a NEW store is opened over the same
// directory via the durable catalog. DLFM restart recovery against that
// cold-started store must find every pre-crash version already archived
// (zero re-archiving), roll the in-flight update back to the last committed
// version byte-identically, and keep the whole history restorable.
func TestRecoveryFromColdStartedArchive(t *testing.T) {
	dir := t.TempDir()
	phys := fs.New()
	phys.MkdirAll("/d", fs.Cred{UID: fs.Root}, 0o777)
	host := newFakeHost()
	arch1, err := archive.NewTiered(0, nil, archive.TierConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Name: "fs1", Phys: phys, Archive: arch1, Host: host,
		TokenKey: []byte("k"), OpenWait: 100 * time.Millisecond,
	}
	srv := openServer(t, cfg)

	seedFile(t, phys, "/d/f.bin", "v0 content")
	linkCommitted(t, srv, "/d/f.bin", "rfd")
	want := map[int][]byte{0: []byte("v0 content")}
	content := make([]byte, 3*64<<10+123)
	for v := 1; v <= 4; v++ {
		id := openWrite(t, srv, "/d/f.bin", owner)
		copy(content, fmt.Sprintf("committed version %d ", v))
		content[64<<10+v] = byte(v) // dirty a second chunk
		if err := phys.WriteFile("/d/f.bin", content); err != nil {
			t.Fatal(err)
		}
		if resp := closeFile(t, srv, phys, "/d/f.bin", id); !resp.OK {
			t.Fatalf("close v%d: %+v", v, resp)
		}
		want[v] = append([]byte(nil), content...)
	}

	// Crash with an update in flight, and take the archive process down with
	// the machine: the store object is closed and forgotten.
	openWrite(t, srv, "/d/f.bin", owner)
	if err := phys.WriteFile("/d/f.bin", []byte("in-flight junk")); err != nil {
		t.Fatal(err)
	}
	srv.Kill()
	arch1.Close()

	arch2, err := archive.NewTiered(0, nil, archive.TierConfig{Dir: dir})
	if err != nil {
		t.Fatalf("cold archive open: %v", err)
	}
	defer arch2.Close()
	if rec := arch2.Recovery(); rec.Versions != len(want) {
		t.Fatalf("cold store replayed %d versions, want %d (%+v)", rec.Versions, len(want), rec)
	}

	cfg.Archive = arch2
	srv2, rep := reopen(t, srv, cfg)
	defer srv2.Close()

	// Nothing was re-archived: the catalog already knew every version.
	if len(rep.ArchivedVersions) != 0 {
		t.Fatalf("recovery re-archived %v against a catalog-complete store", rep.ArchivedVersions)
	}
	if d := arch2.Dedup(); d.NewBytes != 0 {
		t.Fatalf("recovery transferred %d bytes to the archive device", d.NewBytes)
	}
	if len(rep.RestoredFiles) != 1 || rep.RestoredFiles[0] != "/d/f.bin" {
		t.Fatalf("restored files = %v", rep.RestoredFiles)
	}
	got, err := phys.ReadFile("/d/f.bin")
	if err != nil || !bytes.Equal(got, want[4]) {
		t.Fatalf("rollback from cold store wrong (%v, %d bytes)", err, len(got))
	}

	// The full pre-crash history is served from the cold-started store.
	for v, wantContent := range want {
		e, err := arch2.Get("fs1", "/d/f.bin", archive.Version(v))
		if err != nil {
			t.Fatalf("get v%d from cold store: %v", v, err)
		}
		if !bytes.Equal(bytesOf(t, e), wantContent) {
			t.Fatalf("v%d diverged across the archive restart", v)
		}
	}

	// And the recovered server keeps updating on top of it.
	id := openWrite(t, srv2, "/d/f.bin", owner)
	if err := phys.WriteFile("/d/f.bin", []byte("post-recovery version")); err != nil {
		t.Fatal(err)
	}
	if resp := closeFile(t, srv2, phys, "/d/f.bin", id); !resp.OK {
		t.Fatalf("post-recovery close: %+v", resp)
	}
	e, err := arch2.Latest("fs1", "/d/f.bin")
	if err != nil || !bytes.Equal(bytesOf(t, e), []byte("post-recovery version")) {
		t.Fatalf("post-recovery version not archived (%v)", err)
	}
}
