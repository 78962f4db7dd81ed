package dlfm

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"datalinks/internal/archive"
	"datalinks/internal/fs"
)

// newFrozenServer builds a DLFM whose repository AND physical file system
// share one settable fake clock, so tests can freeze time (quarantine-name
// collisions) and advance it (TTL expiry).
func newFrozenServer(t *testing.T, now *time.Time, ttl time.Duration) (*Server, *fs.FS, *fakeHost) {
	t.Helper()
	clock := func() time.Time { return *now }
	phys := fs.NewWithClock(clock)
	phys.MkdirAll("/d", fs.Cred{UID: fs.Root}, 0o777)
	host := newFakeHost()
	srv, err := New(Config{
		Name:          "fs1",
		Phys:          phys,
		Archive:       archive.New(0, clock),
		Host:          host,
		TokenKey:      []byte("k"),
		Clock:         clock,
		OpenWait:      100 * time.Millisecond,
		QuarantineTTL: ttl,
	})
	if err != nil {
		t.Fatalf("new dlfm: %v", err)
	}
	return srv, phys, host
}

// TestQuarantineNamesNeverCollide: the old scheme flattened paths with
// ReplaceAll("/", "_") plus a clock timestamp, so /d/a/b_c and /d/a_b/c
// rolled back in the same (frozen) clock tick silently overwrote each
// other's quarantined content. The injective percent-escaped encoding plus
// the monotonic sequence number must keep both copies.
func TestQuarantineNamesNeverCollide(t *testing.T) {
	now := time.Unix(1000, 0)
	srv, phys, _ := newFrozenServer(t, &now, 0)
	defer srv.Close()

	paths := []string{"/d/a/b_c", "/d/a_b/c"}
	inflight := map[string][]byte{
		"/d/a/b_c": []byte("in-flight content of /d/a/b_c"),
		"/d/a_b/c": []byte("in-flight content of /d/a_b/c"),
	}
	for _, p := range paths {
		phys.MkdirAll(p[:len(p)-2], fs.Cred{UID: fs.Root}, 0o777)
		seedFile(t, phys, p, "committed "+p)
		linkCommitted(t, srv, p, "rfd")
		openWrite(t, srv, p, owner)
		if err := phys.WriteFile(p, inflight[p]); err != nil {
			t.Fatal(err)
		}
	}
	// Both rollbacks happen in the same frozen clock tick.
	for _, p := range paths {
		if err := srv.AbortUpdateByPath(p); err != nil {
			t.Fatalf("abort %s: %v", p, err)
		}
	}

	q := srv.QuarantinedFiles()
	if len(q) != 2 {
		t.Fatalf("quarantine holds %d files (%v), want both in-flight copies", len(q), q)
	}
	// Every in-flight content must survive, each in its own file.
	found := map[string]bool{}
	for _, name := range q {
		data, err := phys.ReadFile(DefaultQuarantineDir + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		for p, want := range inflight {
			if bytes.Equal(data, want) {
				found[p] = true
			}
		}
	}
	for p := range inflight {
		if !found[p] {
			t.Fatalf("in-flight content of %s lost from quarantine (files: %v)", p, q)
		}
	}
	// And the live files rolled back to their committed versions.
	for _, p := range paths {
		got, _ := phys.ReadFile(p)
		if string(got) != "committed "+p {
			t.Fatalf("%s = %q after rollback", p, got)
		}
	}
}

// TestQuarantineSeqSurvivesRecovery: the anti-collision sequence counter is
// in-memory, so a recovered server must reseed it past surviving quarantine
// files — otherwise a post-crash rollback under the same frozen clock tick
// would regenerate a pre-crash name and overwrite its content.
func TestQuarantineSeqSurvivesRecovery(t *testing.T) {
	now := time.Unix(3000, 0)
	srv, phys, host := newFrozenServer(t, &now, 0)

	seedFile(t, phys, "/d/f.bin", "committed")
	linkCommitted(t, srv, "/d/f.bin", "rfd")
	openWrite(t, srv, "/d/f.bin", owner)
	if err := phys.WriteFile("/d/f.bin", []byte("junk one")); err != nil {
		t.Fatal(err)
	}
	if err := srv.AbortUpdateByPath("/d/f.bin"); err != nil {
		t.Fatal(err)
	}

	// Crash with a second update in flight; recovery rolls it back in the
	// same (frozen) clock tick.
	openWrite(t, srv, "/d/f.bin", owner)
	if err := phys.WriteFile("/d/f.bin", []byte("junk two")); err != nil {
		t.Fatal(err)
	}
	durable := srv.CrashRepo()
	clock := func() time.Time { return now }
	srv2, _, err := Recover(Config{
		Name: "fs1", Phys: phys, Archive: srv.cfg.Archive, Host: host,
		TokenKey: []byte("k"), Clock: clock,
	}, durable)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer srv2.Close()

	q := srv2.QuarantinedFiles()
	if len(q) != 2 {
		t.Fatalf("quarantine holds %d files (%v); recovery overwrote the pre-crash copy", len(q), q)
	}
	contents := map[string]bool{}
	for _, name := range q {
		data, err := phys.ReadFile(DefaultQuarantineDir + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		contents[string(data)] = true
	}
	if !contents["junk one"] || !contents["junk two"] {
		t.Fatalf("quarantined contents = %v, want both junk copies", contents)
	}
}

// TestQuarantineTTLExpiry: quarantined files older than the TTL are swept;
// younger ones survive.
func TestQuarantineTTLExpiry(t *testing.T) {
	now := time.Unix(2000, 0)
	srv, phys, _ := newFrozenServer(t, &now, time.Minute)
	defer srv.Close()

	seedFile(t, phys, "/d/f.bin", "v0")
	linkCommitted(t, srv, "/d/f.bin", "rfd")

	rollback := func() {
		openWrite(t, srv, "/d/f.bin", owner)
		if err := phys.WriteFile("/d/f.bin", []byte("junk")); err != nil {
			t.Fatal(err)
		}
		if err := srv.AbortUpdateByPath("/d/f.bin"); err != nil {
			t.Fatal(err)
		}
	}
	rollback() // old quarantine file, stamped at t0
	now = now.Add(45 * time.Second)
	rollback() // young quarantine file, stamped at t0+45s

	if got := len(srv.QuarantinedFiles()); got != 2 {
		t.Fatalf("quarantined files = %d, want 2", got)
	}
	// Nothing is older than the TTL yet.
	if n := srv.SweepQuarantine(); n != 0 {
		t.Fatalf("premature expiry of %d files", n)
	}
	// 30s later the first copy (75s old) has expired, the second (30s) not.
	now = now.Add(30 * time.Second)
	if n := srv.SweepQuarantine(); n != 1 {
		t.Fatalf("expired %d files, want 1", n)
	}
	if got := len(srv.QuarantinedFiles()); got != 1 {
		t.Fatalf("quarantined files after sweep = %d, want 1", got)
	}
	// Far in the future everything is gone.
	now = now.Add(time.Hour)
	if n := srv.SweepQuarantine(); n != 1 {
		t.Fatalf("expired %d files, want 1", n)
	}
	if got := len(srv.QuarantinedFiles()); got != 0 {
		t.Fatalf("quarantine not empty after full expiry: %v", srv.QuarantinedFiles())
	}
}

// TestRecoveryRestoresFromDiskTier: with the durable tier enabled and an LRU
// budget too small to keep anything resident, a crash mid-update must still
// restore the last committed version — its chunks page back in from the
// on-disk store.
func TestRecoveryRestoresFromDiskTier(t *testing.T) {
	phys := fs.New()
	phys.MkdirAll("/d", fs.Cred{UID: fs.Root}, 0o777)
	host := newFakeHost()
	arch, err := archive.NewTiered(0, nil, archive.TierConfig{
		Dir:          t.TempDir(),
		MemoryBudget: 16, // 1 byte per LRU shard: every blob evicts after write
	})
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	cfg := Config{
		Name: "fs1", Phys: phys, Archive: arch, Host: host,
		TokenKey: []byte("k"), OpenWait: 100 * time.Millisecond,
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Commit a multi-chunk version so the restore needs real chunk page-ins.
	committed := make([]byte, 3*64<<10+777)
	for i := range committed {
		committed[i] = byte(i * 7)
	}
	seedFile(t, phys, "/d/f.bin", "v0")
	linkCommitted(t, srv, "/d/f.bin", "rfd")
	id := openWrite(t, srv, "/d/f.bin", owner)
	if err := phys.WriteFile("/d/f.bin", committed); err != nil {
		t.Fatal(err)
	}
	if resp := closeFile(t, srv, phys, "/d/f.bin", id); !resp.OK {
		t.Fatalf("commit close: %+v", resp)
	}
	srv.WaitArchives()
	if arch.Tier().Spills == 0 {
		t.Fatal("nothing spilled to the disk tier")
	}

	// Crash with a new update in flight.
	openWrite(t, srv, "/d/f.bin", owner)
	if err := phys.WriteFile("/d/f.bin", []byte("in-flight junk")); err != nil {
		t.Fatal(err)
	}
	durable := srv.CrashRepo()
	pageInsBefore := arch.Tier().PageIns
	srv2, rep, err := Recover(cfg, durable)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer srv2.Close()
	if len(rep.RestoredFiles) != 1 {
		t.Fatalf("restored files = %v", rep.RestoredFiles)
	}
	got, err := phys.ReadFile("/d/f.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, committed) {
		t.Fatalf("restored content wrong: %d bytes, want %d", len(got), len(committed))
	}
	if arch.Tier().PageIns <= pageInsBefore {
		t.Fatal("restore did not page chunks in from disk")
	}
}

// TestTieredCommitChurnBoundsResidency: many committed versions with the
// disk tier on — archive memory stays under the LRU budget while the
// logical archive grows, and every version remains restorable.
func TestTieredCommitChurnBoundsResidency(t *testing.T) {
	phys := fs.New()
	phys.MkdirAll("/d", fs.Cred{UID: fs.Root}, 0o777)
	host := newFakeHost()
	const budget = 4 * 64 << 10
	arch, err := archive.NewTiered(0, nil, archive.TierConfig{Dir: t.TempDir(), MemoryBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	srv, err := New(Config{
		Name: "fs1", Phys: phys, Archive: arch, Host: host,
		TokenKey: []byte("k"), OpenWait: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	content := make([]byte, 2*64<<10+99)
	seedFile(t, phys, "/d/f.bin", string(content))
	linkCommitted(t, srv, "/d/f.bin", "rfd")
	want := make(map[int][]byte)
	for v := 1; v <= 24; v++ {
		id := openWrite(t, srv, "/d/f.bin", owner)
		copy(content, fmt.Sprintf("version %03d ", v))
		content[64<<10+v] = byte(v) // touch the second chunk too
		if err := phys.WriteFile("/d/f.bin", content); err != nil {
			t.Fatal(err)
		}
		if resp := closeFile(t, srv, phys, "/d/f.bin", id); !resp.OK {
			t.Fatalf("close v%d: %+v", v, resp)
		}
		srv.WaitArchives()
		want[v] = append([]byte(nil), content...)
	}
	if got := arch.Tier().ResidentBytes; got > budget {
		t.Fatalf("archive resident %d bytes exceeds LRU budget %d", got, budget)
	}
	for v, wantContent := range want {
		e, err := arch.Get("fs1", "/d/f.bin", archive.Version(v))
		if err != nil {
			t.Fatalf("get v%d: %v", v, err)
		}
		if !bytes.Equal(bytesOf(t, e), wantContent) {
			t.Fatalf("v%d content diverged", v)
		}
	}
}
