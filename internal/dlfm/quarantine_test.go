package dlfm

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"datalinks/internal/archive"
	"datalinks/internal/extent"
	"datalinks/internal/fs"
	"datalinks/internal/metrics"
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
	arch, err := archive.NewTiered(0, clock, archive.TierConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(arch.Close)
	srv := openServer(t, Config{
		Name:          "fs1",
		Phys:          phys,
		Archive:       arch,
		Host:          host,
		TokenKey:      []byte("k"),
		Clock:         clock,
		OpenWait:      100 * time.Millisecond,
		QuarantineTTL: ttl,
	})
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
	srv.Kill()
	clock := func() time.Time { return now }
	srv2, _ := reopen(t, srv, Config{
		Name: "fs1", Phys: phys, Archive: srv.cfg.Archive, Host: host,
		TokenKey: []byte("k"), Clock: clock,
	})
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

// TestRecoveryRestoresFromDiskTier: a crash mid-update must restore the last
// committed version, its chunks read back from the on-disk store.
func TestRecoveryRestoresFromDiskTier(t *testing.T) {
	phys := fs.New()
	phys.MkdirAll("/d", fs.Cred{UID: fs.Root}, 0o777)
	host := newFakeHost()
	arch, err := archive.NewTiered(0, nil, archive.TierConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	cfg := Config{
		Name: "fs1", Phys: phys, Archive: arch, Host: host,
		TokenKey: []byte("k"), OpenWait: 100 * time.Millisecond,
	}
	srv := openServer(t, cfg)

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
	if arch.Tier().Spills == 0 {
		t.Fatal("nothing spilled to the disk tier")
	}

	// Crash with a new update in flight.
	openWrite(t, srv, "/d/f.bin", owner)
	if err := phys.WriteFile("/d/f.bin", []byte("in-flight junk")); err != nil {
		t.Fatal(err)
	}
	srv.Kill()
	pageInsBefore := arch.Tier().PageIns
	srv2, rep := reopen(t, srv, cfg)
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

// TestTieredCommitChurnBoundsResidency: many committed versions of a file
// twice the memory budget — after every close the file system's resident
// chunks are within the budget, the clean ones paged out against the archive,
// while the logical archive grows, and every version remains restorable.
func TestTieredCommitChurnBoundsResidency(t *testing.T) {
	const budget = 4 * extent.ChunkSize
	phys := fs.New()
	phys.SetMemoryBudget(budget, metrics.NewRegistry())
	phys.MkdirAll("/d", fs.Cred{UID: fs.Root}, 0o777)
	host := newFakeHost()
	arch, err := archive.NewTiered(0, nil, archive.TierConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	srv := openServer(t, Config{
		Name: "fs1", Phys: phys, Archive: arch, Host: host,
		TokenKey: []byte("k"), OpenWait: 100 * time.Millisecond,
	})
	defer srv.Close()

	content := randomContent(7, 2*budget+99)
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
		if got := phys.ResidentBytes(); got > budget {
			t.Fatalf("after closing v%d the file system holds %d resident bytes, over the %d budget", v, got, budget)
		}
		want[v] = append([]byte(nil), content...)
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

// TestRollbackQuarantineStaysWithinTheBudget: rolling back an update of a
// file mostly paged out against the archive quarantines it without reading
// it — the in-flight content moves to the quarantine file with its chunk
// source — so the file system holds no more than the budget plus the chunks
// the aborted update dirtied. The copy reads back the in-flight bytes and
// pages like any file: reading it back leaves the same bound standing.
func TestRollbackQuarantineStaysWithinTheBudget(t *testing.T) {
	const budget = 4 << 20
	phys := fs.New()
	phys.SetMemoryBudget(budget, metrics.NewRegistry())
	phys.MkdirAll("/d", fs.Cred{UID: fs.Root}, 0o777)
	srv := openServer(t, Config{
		Name: "fs1", Phys: phys, Archive: newArchive(t), Host: newFakeHost(),
		TokenKey: []byte("k"), OpenWait: 100 * time.Millisecond,
	})
	defer srv.Close()

	content := randomContent(11, 8<<20)
	seedFile(t, phys, "/d/f.bin", "seed")
	linkCommitted(t, srv, "/d/f.bin", "rfd")
	commitVersion(t, srv, phys, "/d/f.bin", content)
	if got := phys.ResidentBytes(); got > budget {
		t.Fatalf("after the commit %d resident bytes, over the %d budget", got, budget)
	}

	openWrite(t, srv, "/d/f.bin", owner)
	ino, err := phys.Lookup("/d/f.bin")
	if err != nil {
		t.Fatal(err)
	}
	inflight := append([]byte(nil), content...)
	const dirtied = 3
	for i := 0; i < dirtied; i++ {
		off := int64(i*50+1)*extent.ChunkSize + 100
		edit := bytes.Repeat([]byte{byte(0xa0 + i)}, 4096)
		if _, err := phys.WriteAt(ino, off, edit); err != nil {
			t.Fatal(err)
		}
		copy(inflight[off:], edit)
	}
	if err := srv.AbortUpdateByPath("/d/f.bin"); err != nil {
		t.Fatal(err)
	}
	if got := phys.ResidentBytes(); got > budget+dirtied*extent.ChunkSize {
		t.Fatalf("after the rollback %d resident bytes, over the budget and the %d dirtied chunks (%d)",
			got, dirtied, budget+dirtied*extent.ChunkSize)
	}

	q := srv.QuarantinedFiles()
	if len(q) != 1 {
		t.Fatalf("quarantine holds %v, want one copy", q)
	}
	if got, err := phys.ReadFile(DefaultQuarantineDir + "/" + q[0]); err != nil || !bytes.Equal(got, inflight) {
		t.Fatalf("the quarantine copy does not read back the in-flight bytes (%d bytes, %v)", len(got), err)
	}
	if got, err := phys.ReadFile("/d/f.bin"); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("the rolled-back file does not read the committed bytes (%d bytes, %v)", len(got), err)
	}
	if got := phys.ResidentBytes(); got > budget+dirtied*extent.ChunkSize {
		t.Fatalf("after reading both files back %d resident bytes, over the budget and the %d dirtied chunks (%d)",
			got, dirtied, budget+dirtied*extent.ChunkSize)
	}
}

// TestExpiredQuarantineCopyGivesUpItsSource: a quarantine copy of a paged-out
// file shares the file's chunk source, which holds the blobs of the version
// it was archived as. When the copy expires those references go with it:
// once the path's history is dropped, GC reclaims the version's blobs.
func TestExpiredQuarantineCopyGivesUpItsSource(t *testing.T) {
	const ttl = time.Minute
	now := time.Unix(7000, 0)
	srv, phys, _ := newFrozenServer(t, &now, ttl)
	defer srv.Close()
	phys.SetMemoryBudget(1<<20, metrics.NewRegistry())
	tick := func(d time.Duration) { now = now.Add(d) }

	seedFile(t, phys, "/d/f.bin", "seed")
	linkCommitted(t, srv, "/d/f.bin", "rfd")
	tick(time.Second)
	commitVersion(t, srv, phys, "/d/f.bin", randomContent(21, 4<<20))
	openWrite(t, srv, "/d/f.bin", owner)
	ino, err := phys.Lookup("/d/f.bin")
	if err != nil {
		t.Fatal(err)
	}
	tick(time.Second)
	if _, err := phys.WriteAt(ino, 100, []byte("in flight")); err != nil {
		t.Fatal(err)
	}
	if err := srv.AbortUpdateByPath("/d/f.bin"); err != nil {
		t.Fatal(err)
	}
	tick(time.Second)
	commitVersion(t, srv, phys, "/d/f.bin", randomContent(22, 4<<20))

	tick(2 * ttl)
	if n := srv.SweepQuarantine(); n != 1 {
		t.Fatalf("the sweep expired %d quarantine files, want 1", n)
	}
	if err := srv.cfg.Archive.Drop(srv.cfg.Name, "/d/f.bin"); err != nil {
		t.Fatal(err)
	}
	// The first committed version's 64 chunks are dead now: nothing but the
	// expired copy could still hold them.
	if freed := srv.cfg.Archive.GCNow(); freed < 64 {
		t.Fatalf("GC freed %d blobs, want the 64 of the version the expired copy shared", freed)
	}
}
