package archive

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"datalinks/internal/chunkdisk"
	"datalinks/internal/extent"
	"datalinks/internal/fsyncer"
)

// reopen closes a tiered store and opens a fresh one over the same directory
// (a process restart: all in-memory state is gone, only the directory
// survives).
func reopen(t *testing.T, s *Store, tier TierConfig) *Store {
	t.Helper()
	tier.Dir = s.TierDir()
	s.Close()
	s2, err := NewTiered(0, nil, tier)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.Close)
	return s2
}

// putBytes archives content as (path, v) and returns a private copy.
func putBytes(t *testing.T, s *Store, path string, v Version, stateID uint64, content []byte) []byte {
	t.Helper()
	snap := extent.FromBytes(content)
	_, err := s.PutSnapshot("fs1", path, v, stateID, snap)
	snap.Release()
	if err != nil {
		t.Fatalf("put %s v%d: %v", path, v, err)
	}
	return append([]byte(nil), content...)
}

// TestRestartServesFullHistory is the acceptance test of the catalog
// subsystem: a store reopened over an existing archive directory serves
// Latest/AsOf/Get for every pre-restart version byte-identically, from many
// goroutines at once, with zero bytes re-archived.
func TestRestartServesFullHistory(t *testing.T) {
	const C = extent.ChunkSize
	dir := t.TempDir()
	tier := TierConfig{}
	s, err := NewTiered(0, nil, TierConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(11))
	paths := []string{"/a.bin", "/dir/b.bin", "/weird\x7f name.bin"}
	want := map[string][][]byte{}
	for pi, p := range paths {
		content := make([]byte, 2*C+pi*1000+77)
		rng.Read(content)
		for v := 0; v < 9; v++ {
			switch v % 3 {
			case 1: // edit in place
				rng.Read(content[C : C+500])
			case 2: // grow
				grown := make([]byte, len(content)+C/2)
				copy(grown, content)
				rng.Read(grown[len(content):])
				content = grown
			}
			want[p] = append(want[p], putBytes(t, s, p, Version(v), uint64(10*v+pi), content))
		}
	}

	s2 := reopen(t, s, tier)
	rec := s2.Recovery()
	if rec.Files != len(paths) || rec.Versions != 9*len(paths) {
		t.Fatalf("recovery = %+v, want %d files / %d versions", rec, len(paths), 9*len(paths))
	}
	if rec.DroppedVersions != 0 || rec.TornBytes != 0 {
		t.Fatalf("clean restart reported damage: %+v", rec)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 1024)
	for _, p := range paths {
		for v := range want[p] {
			wg.Add(1)
			go func(p string, v int) {
				defer wg.Done()
				e, err := s2.Get("fs1", p, Version(v))
				if err != nil {
					errs <- fmt.Errorf("get %s v%d: %w", p, v, err)
					return
				}
				if e.StateID != uint64(10*v+indexOf(paths, p)) {
					errs <- fmt.Errorf("%s v%d state id = %d", p, v, e.StateID)
					return
				}
				if !bytes.Equal(bytesOf(t, e), want[p][v]) {
					errs <- fmt.Errorf("%s v%d content diverged after restart", p, v)
				}
			}(p, v)
		}
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			e, err := s2.Latest("fs1", p)
			if err != nil || e.Version != 8 {
				errs <- fmt.Errorf("latest %s: %v (v%d)", p, err, e.Version)
				return
			}
			mid, err := s2.AsOf("fs1", p, uint64(10*4+indexOf(paths, p)))
			if err != nil || mid.Version != 4 {
				errs <- fmt.Errorf("asof %s: %v (v%d)", p, err, mid.Version)
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Nothing was re-archived to serve any of that.
	if d := s2.Dedup(); d.NewBytes != 0 {
		t.Fatalf("reopen re-archived %d bytes", d.NewBytes)
	}
	if st := s2.Tier(); st.Spills != 0 {
		t.Fatalf("reopen spilled %d blobs", st.Spills)
	}
	if s2.Tier().PageIns == 0 {
		t.Fatal("verification paged nothing in — the reads did not come from disk")
	}

	// New versions append cleanly on top of replayed history, and survive
	// another restart.
	next := putBytes(t, s2, paths[0], 9, 1000, bytes.Repeat([]byte{0xAB}, C+5))
	s3 := reopen(t, s2, tier)
	e, err := s3.Latest("fs1", paths[0])
	if err != nil || e.Version != 9 || !bytes.Equal(bytesOf(t, e), next) {
		t.Fatalf("post-restart put lost: %v v%d", err, e.Version)
	}
}

func indexOf(ss []string, s string) int {
	for i, v := range ss {
		if v == s {
			return i
		}
	}
	return -1
}

// TestRestartRespectsTruncateAndDrop: TruncateAfter and Drop tombstones hold
// across a restart — dropped versions stay dropped, their chunk files are
// reclaimable by GC, and nothing resurrects.
func TestRestartRespectsTruncateAndDrop(t *testing.T) {
	const C = extent.ChunkSize
	s, err := NewTiered(0, nil, TierConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	content := make([]byte, C+123)
	var wantKeep [][]byte
	for v := 0; v < 6; v++ {
		rng.Read(content)
		kept := putBytes(t, s, "/t.bin", Version(v), uint64(v+1), content)
		if v < 3 {
			wantKeep = append(wantKeep, kept)
		}
		rng.Read(content)
		putBytes(t, s, "/d.bin", Version(v), uint64(v+1), content)
	}
	s.TruncateAfter("fs1", "/t.bin", 3) // keep v0..v2
	s.Drop("fs1", "/d.bin")

	// Crash-style restart: no clean Close, so the dead-blob sweep never ran
	// and the dropped versions' chunk files are still on disk. The catalog
	// tombstones are what keeps them from resurrecting; adoption marks them
	// dead again and GC reclaims them. (Crash releases the single-owner dir
	// lock the way a real process death does, without the Close-time sweep.)
	dir := s.TierDir()
	s.Crash()
	s2, err := NewTiered(0, nil, TierConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.Close)
	if got := len(s2.Versions("fs1", "/t.bin")); got != 3 {
		t.Fatalf("truncated file has %d versions after restart, want 3", got)
	}
	for v, want := range wantKeep {
		e, err := s2.Get("fs1", "/t.bin", Version(v))
		if err != nil || !bytes.Equal(bytesOf(t, e), want) {
			t.Fatalf("surviving v%d wrong after restart: %v", v, err)
		}
	}
	if vs := s2.Versions("fs1", "/d.bin"); len(vs) != 0 {
		t.Fatalf("dropped file resurrected with %d versions", len(vs))
	}
	if _, err := s2.Latest("fs1", "/d.bin"); err == nil {
		t.Fatal("dropped file served after restart")
	}
	// The dropped/truncated versions' blobs were adopted dead: GC reclaims
	// them, and yet another restart still serves the survivors.
	if freed := s2.GCNow(); freed == 0 {
		t.Fatal("GC found nothing to free after restart of a truncated archive")
	}
	s3 := reopen(t, s2, TierConfig{})
	for v, want := range wantKeep {
		e, err := s3.Get("fs1", "/t.bin", Version(v))
		if err != nil || !bytes.Equal(bytesOf(t, e), want) {
			t.Fatalf("v%d wrong after GC + second restart: %v", v, err)
		}
	}
}

// cutBlob removes blob h's record from the pack holding it in a closed
// store's directory, as if it had never been written, and returns the pack's
// path. A record is self-framing — dataLen | logicalLen | crc | hash | flags
// | data after the pack's magic, see chunkdisk/pack.go — so the rest of the
// pack still scans; the footer a sealed pack ends in no longer agrees with
// the file's length, so the next open scans the pack instead of trusting it.
func cutBlob(t *testing.T, dir string, h extent.Hash) string {
	t.Helper()
	const magicLen, hdrLen = 8, 4 + 4 + 4 + 32 + 1
	packs, err := filepath.Glob(filepath.Join(dir, "pack-*.pk"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range packs {
		pack, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for off := magicLen; off+hdrLen <= len(pack); {
			end := off + hdrLen + int(binary.LittleEndian.Uint32(pack[off:]))
			if bytes.Equal(pack[off+12:off+44], h[:]) {
				if err := os.WriteFile(path, append(pack[:off:off], pack[end:]...), 0o644); err != nil {
					t.Fatal(err)
				}
				return path
			}
			off = end
		}
	}
	t.Fatalf("no pack under %s holds blob %x", dir, h[:8])
	return ""
}

// TestRestartDropsVersionsWithMissingBlobs: if a chunk referenced by the
// newest version is cut out of its pack behind the store's back, reopen
// quarantines that version (and would-be successors) instead of failing open
// or serving corrupt data — earlier versions keep working.
func TestRestartDropsVersionsWithMissingBlobs(t *testing.T) {
	const C = extent.ChunkSize
	dir := t.TempDir()
	s, err := NewTiered(0, nil, TierConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	base := bytes.Repeat([]byte{1}, C+9)
	v0 := putBytes(t, s, "/f.bin", 0, 1, base)
	// v1 appends one unique chunk whose pack record we can locate by hash.
	unique := bytes.Repeat([]byte{2}, C)
	v1content := append(append([]byte(nil), base[:C]...), unique...)
	putBytes(t, s, "/f.bin", 1, 2, v1content)
	s.Close()
	footer := []byte("DLPFOOT1") // the magic a sealed pack ends in
	pack := cutBlob(t, dir, sha256.Sum256(unique))
	cut, err := os.ReadFile(pack)
	if err != nil || !bytes.HasSuffix(cut, footer) {
		t.Fatalf("the cut pack (%v) does not end in the footer its clean close wrote", err)
	}

	s2, err := NewTiered(0, nil, TierConfig{Dir: dir})
	if err != nil {
		t.Fatalf("open with a missing blob must not fail: %v", err)
	}
	defer s2.Close()
	// The footer lists the cut record, so it is not trusted: the pack is
	// scanned, the stale footer quarantined whole and a fresh one written.
	torn, err := os.ReadFile(pack + ".torn")
	if err != nil || !bytes.HasSuffix(cut, torn) || !bytes.HasSuffix(torn, footer) || s2.Tier().PackTornBytes != int64(len(torn)) {
		t.Fatalf("the cut pack's stale footer was not quarantined: %d torn bytes (%v), stats %d", len(torn), err, s2.Tier().PackTornBytes)
	}
	if again, err := os.ReadFile(pack); err != nil || !bytes.HasSuffix(again, footer) || bytes.Equal(again, cut) {
		t.Fatalf("the scanned pack was not footered afresh (%v)", err)
	}
	if rec := s2.Recovery(); rec.DroppedVersions != 1 || rec.Versions != 1 {
		t.Fatalf("recovery = %+v, want 1 dropped / 1 served", rec)
	}
	e, err := s2.Latest("fs1", "/f.bin")
	if err != nil || e.Version != 0 || !bytes.Equal(bytesOf(t, e), v0) {
		t.Fatalf("v0 must survive the corruption: %v (v%d)", err, e.Version)
	}
	if _, err := s2.Get("fs1", "/f.bin", 1); err == nil {
		t.Fatal("version with a missing blob still served")
	}
	// The drop is persisted: a further restart agrees without re-validating.
	s3 := reopen(t, s2, TierConfig{})
	if got := len(s3.Versions("fs1", "/f.bin")); got != 1 {
		t.Fatalf("second restart sees %d versions, want 1", got)
	}
}

// TestCrashMidTransferLosesTheVersion: the simulated device transfer comes
// before the version is indexed, so a store that dies while a put is still
// transferring comes back without that version — a slow device delays
// durability, not only the put's return.
func TestCrashMidTransferLosesTheVersion(t *testing.T) {
	dir := t.TempDir()
	s, err := NewTiered(0, nil, TierConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	putBytes(t, s, "/f.bin", 0, 1, []byte("v0"))
	s.SetLatency(500 * time.Millisecond)
	done := make(chan error, 1)
	go func() {
		snap := extent.FromBytes([]byte("v1, still on its way to the device"))
		defer snap.Release()
		_, err := s.PutSnapshot("fs1", "/f.bin", 1, 2, snap)
		done <- err
	}()
	time.Sleep(100 * time.Millisecond) // the put is interned and transferring
	s.Crash()
	if err := <-done; err == nil {
		t.Error("a put whose store died mid-transfer returned success")
	}

	s2, err := NewTiered(0, nil, TierConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Get("fs1", "/f.bin", 1); err == nil {
		t.Fatal("the reopened store serves a version whose transfer never finished")
	}
	if _, err := s2.Get("fs1", "/f.bin", 0); err != nil {
		t.Fatal("the reopened store lost the version before it")
	}
}

// TestCheckpointIntervalSweep: the delta-chain checkpoint interval is
// configurable; every setting must keep all versions byte-identical, both
// live and across a restart, while storing the expected manifest mix.
func TestCheckpointIntervalSweep(t *testing.T) {
	const C = extent.ChunkSize
	for _, every := range []int{1, 4, 64} {
		every := every
		t.Run(fmt.Sprintf("every=%d", every), func(t *testing.T) {
			tier := TierConfig{checkpointEvery: every}
			cfg := tier
			cfg.Dir = t.TempDir()
			s, err := NewTiered(0, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(every)))
			content := make([]byte, 4*C+55)
			rng.Read(content)
			var want [][]byte
			const versions = 12
			for v := 0; v < versions; v++ {
				rng.Read(content[C : C+100]) // single-chunk edit: delta-friendly
				want = append(want, putBytes(t, s, "/f.bin", Version(v), uint64(v+1), content))
			}

			// Count checkpoint manifests in the chain.
			k := key("fs1", "/f.bin")
			sh := s.shardFor(k)
			sh.mu.Lock()
			full := 0
			for _, rec := range sh.entries[k].recs {
				if rec.IsFull {
					full++
				}
			}
			sh.mu.Unlock()
			switch {
			case every == 1 && full != versions:
				t.Fatalf("interval 1: %d/%d checkpoints, want all", full, versions)
			case every == 4 && (full < versions/4 || full == versions):
				t.Fatalf("interval 4: %d/%d checkpoints", full, versions)
			case every == 64 && full != 1:
				t.Fatalf("interval 64: %d checkpoints, want only v0", full)
			}

			check := func(s *Store, phase string) {
				t.Helper()
				for v := range want {
					e, err := s.Get("fs1", "/f.bin", Version(v))
					if err != nil || !bytes.Equal(bytesOf(t, e), want[v]) {
						t.Fatalf("%s: v%d diverged (%v)", phase, v, err)
					}
				}
			}
			check(s, "live")
			check(reopen(t, s, tier), "restarted")
		})
	}
}

// TestRestartRefusesARetiredBlobForm: an archive directory holding blobs in
// a form earlier stores wrote — here a fan-out dir of loose blobs — fails
// NewTiered with chunkdisk's RetiredFormError naming it, and the catalog and
// packs beside it are left as they were.
func TestRestartRefusesARetiredBlobForm(t *testing.T) {
	dir := t.TempDir()
	s, err := NewTiered(0, nil, TierConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	putBytes(t, s, "/f.bin", 0, 1, bytes.Repeat([]byte("v0"), 5000))
	s.Close()
	loose := filepath.Join(dir, "ab")
	if err := os.Mkdir(loose, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(loose, "cdef"), []byte("a loose blob"), 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err = NewTiered(0, nil, TierConfig{Dir: dir})
	var rf *chunkdisk.RetiredFormError
	if !errors.As(err, &rf) || rf.Path != loose {
		if err == nil {
			s.Close()
		}
		t.Fatalf("NewTiered = %v, want the retired form in %s", err, loose)
	}
	if after, _ := os.ReadDir(dir); len(after) != len(before) {
		t.Fatalf("the refused open left %d entries in the directory, were %d", len(after), len(before))
	}
}

// TestRestartServesPackfileBackedHistory: the E16 recipe against a
// packfile-backed dir, including a deliberately TORN pack tail. All blobs sit
// in packfiles (small threshold target forces several packs); the process
// "crashes" (no clean close), garbage is appended to the newest pack as a
// torn half-record, and the reopened store must serve every version
// byte-identically with zero re-archiving — the torn suffix quarantined.
func TestRestartServesPackfileBackedHistory(t *testing.T) {
	const C = extent.ChunkSize
	dir := t.TempDir()
	tier := TierConfig{packTargetBytes: 4 * C, Fsync: fsyncer.PolicyGroup}
	cfg := tier
	cfg.Dir = dir
	s, err := NewTiered(0, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	content := make([]byte, 2*C+333)
	rng.Read(content)
	var want [][]byte
	for v := 0; v < 8; v++ {
		rng.Read(content[C : C+700]) // single-chunk edits: pack-resident deltas
		want = append(want, putBytes(t, s, "/p.bin", Version(v), uint64(v+1), content))
	}
	if st := s.Tier(); st.PackAppends == 0 || st.PackFiles < 2 {
		t.Fatalf("workload not packfile-backed: %+v", st)
	}
	if ch, ca := s.Fsyncs(); ch == 0 || ca == 0 {
		t.Fatalf("group policy issued no fsyncs (chunk=%d catalog=%d)", ch, ca)
	}
	s.Crash()

	// Tear the newest pack: a crash mid-append leaves a half-written record.
	packs, err := filepath.Glob(filepath.Join(dir, "pack-*.pk"))
	if err != nil || len(packs) == 0 {
		t.Fatalf("no packfiles on disk: %v %v", packs, err)
	}
	sort.Strings(packs)
	newest := packs[len(packs)-1]
	f, err := os.OpenFile(newest, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte("\x40\x00\x00\x00half-written pack record interrupted by power loss")
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := NewTiered(0, nil, cfg)
	if err != nil {
		t.Fatalf("reopen over torn pack: %v", err)
	}
	defer s2.Close()
	if got := s2.Tier().PackTornBytes; got != int64(len(torn)) {
		t.Fatalf("torn pack bytes = %d, want %d", got, len(torn))
	}
	if _, err := os.Stat(newest + ".torn"); err != nil {
		t.Fatalf("torn pack tail not quarantined: %v", err)
	}
	if rec := s2.Recovery(); rec.Versions != len(want) || rec.DroppedVersions != 0 {
		t.Fatalf("recovery = %+v, want %d versions, none dropped", rec, len(want))
	}
	for v := range want {
		e, err := s2.Get("fs1", "/p.bin", Version(v))
		if err != nil || !bytes.Equal(bytesOf(t, e), want[v]) {
			t.Fatalf("v%d diverged across the torn-pack restart (%v)", v, err)
		}
	}
	if d := s2.Dedup(); d.NewBytes != 0 {
		t.Fatalf("torn-pack reopen re-archived %d bytes", d.NewBytes)
	}
	if st := s2.Tier(); st.Spills != 0 {
		t.Fatalf("torn-pack reopen spilled %d blobs", st.Spills)
	}
}

// TestArchiveDirSingleOwner: a second NewTiered over a live archive dir fails
// fast (the ROADMAP lockfile item) and Close releases the lock.
func TestArchiveDirSingleOwner(t *testing.T) {
	dir := t.TempDir()
	s, err := NewTiered(0, nil, TierConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTiered(0, nil, TierConfig{Dir: dir}); err == nil {
		t.Fatal("second NewTiered over a live archive dir succeeded")
	}
	s.Close()
	s2, err := NewTiered(0, nil, TierConfig{Dir: dir})
	if err != nil {
		t.Fatalf("open after Close: %v", err)
	}
	s2.Close()
}
