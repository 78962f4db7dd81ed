package chunkdisk

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"datalinks/internal/extent"
	"datalinks/internal/fsyncer"
)

// stripFooter cuts a pack's footer off, if it has one, and clears its seal
// mark, leaving the records to the end of the file as a crash, or a writer
// before footers, leaves them.
func stripFooter(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	var fr footerReader
	if body, ok := fr.read(f, info.Size()); ok {
		if err := f.Truncate(body); err != nil {
			t.Fatal(err)
		}
	}
	if err := writeSealMark(f, false); err != nil {
		t.Fatal(err)
	}
}

// packFilesOnDisk lists pack-*.pk files in a directory.
func packFilesOnDisk(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "pack-") && strings.HasSuffix(e.Name(), ".pk") {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestPackRoundTripAndRotation: blobs land in packfiles (no loose files),
// packs seal and rotate at the target size, and every blob pages back in
// byte-identical.
func TestPackRoundTripAndRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, PackTargetBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 40
	var hashes []extent.Hash
	for i := 0; i < n; i++ {
		data, h := blob(i, 1000+i)
		hashes = append(hashes, h)
		if !put(t, s, data, h) {
			t.Fatalf("blob %d not written", i)
		}
	}
	st := s.Stats()
	if st.PackAppends != n {
		t.Fatalf("packAppends = %d, want %d", st.PackAppends, n)
	}
	if st.PackFiles < 2 {
		t.Fatalf("packFiles = %d; a 16 KiB target over ~%d KiB of blobs must rotate", st.PackFiles, n)
	}
	if got := diskFiles(t, dir); got != 0 {
		t.Fatalf("%d loose files for packed blobs", got)
	}
	if st.FilesCreated != st.PackFiles {
		t.Fatalf("filesCreated = %d, want one per pack (%d)", st.FilesCreated, st.PackFiles)
	}
	for i, h := range hashes {
		data, _ := blob(i, 1000+i)
		if got := get(t, s, h); !bytes.Equal(got, data) {
			t.Fatalf("pack blob %d diverged after page-in", i)
		}
	}
	// A blob longer than a chunk is packed too.
	big, bh := blob(999, extent.ChunkSize+1)
	put(t, s, big, bh)
	if st := s.Stats(); st.PackAppends != n+1 || diskFiles(t, dir) != 0 {
		t.Fatalf("a blob longer than a chunk was not packed: %+v", st)
	}
	if got := get(t, s, bh); !bytes.Equal(got, big) {
		t.Fatal("packed long blob diverged")
	}
}

// TestPackAdoptionAndClaim: a reopened store indexes pack records from the
// files alone (no separate index), Ref revives them with zero transfer,
// and records nothing Refs sweep into dead space.
func TestPackAdoptionAndClaim(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	dataA, hA := blob(1, 5000)
	dataB, hB := blob(2, 5000)
	put(t, s1, dataA, hA)
	put(t, s1, dataB, hB)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.DiskBlobs != 2 || st.DeadBlobs != 2 {
		t.Fatalf("adopted: %+v", st)
	}
	if !s2.Ref(hA) {
		t.Fatal("claim of adopted pack blob failed")
	}
	if got := get(t, s2, hA); !bytes.Equal(got, dataA) {
		t.Fatal("claimed pack blob diverged")
	}
	// Re-put of the other adopted blob revives without a transfer.
	if wrote := put(t, s2, dataB, hB); wrote {
		t.Fatal("adopted pack blob rewritten")
	}
	if freed := s2.Sweep(); freed != 0 {
		t.Fatalf("sweep freed %d claimed/revived blobs", freed)
	}
}

// TestPackTornTailEveryByteBoundary is the recovery acceptance test: a pack
// holding K records is truncated at EVERY byte offset inside (and at the end
// of) its final record; reopening must always index exactly the records whose
// frames survived whole, quarantine the invalid suffix, and keep serving.
func TestPackTornTailEveryByteBoundary(t *testing.T) {
	// Build a reference pack once.
	master := t.TempDir()
	s, err := Open(Config{Dir: master})
	if err != nil {
		t.Fatal(err)
	}
	const records = 3
	var datas [][]byte
	var hashes []extent.Hash
	for i := 0; i < records; i++ {
		data, h := blob(50+i, 600+40*i)
		datas = append(datas, data)
		hashes = append(hashes, h)
		put(t, s, data, h)
	}
	s.Crash() // an active pack: records to the end, no footer
	packs := packFilesOnDisk(t, master)
	if len(packs) != 1 {
		t.Fatalf("expected one pack, got %v", packs)
	}
	full, err := os.ReadFile(filepath.Join(master, packs[0]))
	if err != nil {
		t.Fatal(err)
	}
	// Find where the last record begins by re-framing the first two.
	lastStart := len(packMagic)
	for i := 0; i < records-1; i++ {
		_, _, n, ok, _ := parseRecord(full[lastStart:])
		if !ok {
			t.Fatal("reference pack does not parse")
		}
		lastStart += n
	}

	for cut := lastStart; cut <= len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, packs[0]), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("cut=%d: open failed: %v", cut, err)
		}
		wantRecords := records - 1
		wantTorn := int64(cut - lastStart)
		if cut == len(full) {
			wantRecords, wantTorn = records, 0
		}
		st := s2.Stats()
		if st.DiskBlobs != int64(wantRecords) {
			t.Fatalf("cut=%d: adopted %d records, want %d", cut, st.DiskBlobs, wantRecords)
		}
		if st.PackTornBytes != wantTorn {
			t.Fatalf("cut=%d: torn bytes %d, want %d", cut, st.PackTornBytes, wantTorn)
		}
		for i := 0; i < wantRecords; i++ {
			if !s2.Ref(hashes[i]) {
				t.Fatalf("cut=%d: surviving record %d not claimable", cut, i)
			}
			if got := get(t, s2, hashes[i]); !bytes.Equal(got, datas[i]) {
				t.Fatalf("cut=%d: surviving record %d diverged", cut, i)
			}
		}
		if wantTorn > 0 {
			if _, err := os.Stat(filepath.Join(dir, packs[0]+".torn")); err != nil {
				t.Fatalf("cut=%d: torn tail not quarantined: %v", cut, err)
			}
			info, err := os.Stat(filepath.Join(dir, packs[0]))
			if err != nil || info.Size() != int64(lastStart)+footerLen(wantRecords) {
				t.Fatalf("cut=%d: pack not truncated to valid prefix and footered (%v, %d)", cut, err, info.Size())
			}
		}
		// The truncated pack keeps accepting service: a new put + reopen.
		fresh, fh := blob(90, 700)
		put(t, s2, fresh, fh)
		if got := get(t, s2, fh); !bytes.Equal(got, fresh) {
			t.Fatalf("cut=%d: post-recovery put diverged", cut)
		}
		s2.Close()
	}
}

// TestPackSecondTearKeepsFirstTearsEvidence: pack-<seq>.pk.torn is appended
// to, never overwritten — after two crashes it holds both torn suffixes in
// order, while PackTornBytes reports the latest repair only.
func TestPackSecondTearKeepsFirstTearsEvidence(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		data, h := blob(30+i, 500)
		put(t, s, data, h)
	}
	s.Crash()
	pack := filepath.Join(dir, packFilesOnDisk(t, dir)[0])
	var evidence []byte
	for round, cut := range []int{5, 9} {
		stripFooter(t, pack) // the open before this round wrote one
		whole, err := os.ReadFile(pack)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(pack, int64(len(whole)-cut)); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		torn := int(st.PackTornBytes)
		if torn <= 0 || st.DiskBlobs != int64(2-round) {
			t.Fatalf("round %d: torn=%d blobs=%d, want torn>0 blobs=%d", round, torn, st.DiskBlobs, 2-round)
		}
		s.Close()
		evidence = append(evidence, whole[len(whole)-cut-torn:len(whole)-cut]...)
		if got, err := os.ReadFile(pack + ".torn"); err != nil || !bytes.Equal(got, evidence) {
			t.Fatalf("round %d: quarantine holds %d bytes (%v), want both tears' %d in order", round, len(got), err, len(evidence))
		}
	}
}

// TestPackCompaction: retiring most of a sealed pack's records pushes its
// garbage ratio over the threshold; compaction rewrites the survivors and
// unlinks the file, and the survivors stay readable.
func TestPackCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny target so the first few puts seal a pack quickly.
	s, err := Open(Config{Dir: dir, PackTargetBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var hashes []extent.Hash
	var datas [][]byte
	for i := 0; i < 12; i++ {
		data, h := blob(200+i, 1024)
		datas = append(datas, data)
		hashes = append(hashes, h)
		put(t, s, data, h)
	}
	before := s.Stats()
	if before.PackFiles < 3 {
		t.Fatalf("packFiles = %d, want several sealed packs", before.PackFiles)
	}
	// Kill every record except the survivors.
	survivors := map[int]bool{0: true, 5: true, 11: true}
	for i, h := range hashes {
		if !survivors[i] {
			s.Release(h)
		}
	}
	if freed := s.Sweep(); freed != len(hashes)-len(survivors) {
		t.Fatalf("sweep freed %d, want %d", freed, len(hashes)-len(survivors))
	}
	after := s.Stats()
	if after.PackCompactions == 0 {
		t.Fatalf("no compactions after a sweep retired %d/%d records: %+v", len(hashes)-len(survivors), len(hashes), after)
	}
	if after.PackFiles >= before.PackFiles {
		t.Fatalf("compaction did not retire packs: %d -> %d", before.PackFiles, after.PackFiles)
	}
	for i := range hashes {
		if survivors[i] {
			if got := get(t, s, hashes[i]); !bytes.Equal(got, datas[i]) {
				t.Fatalf("survivor %d diverged after compaction", i)
			}
		} else if _, err := s.Get(hashes[i]); err == nil {
			t.Fatalf("swept record %d still served", i)
		}
	}
}

// fdsOn counts this process's open file descriptors on path, unlinked or
// not.
func fdsOn(t *testing.T, path string) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	n := 0
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.TrimSuffix(target, " (deleted)") == path {
			n++
		}
	}
	return n
}

// TestPackReadHandleClosesWithThePack: reads of a pack share one read
// handle; compaction closes it with the pack, so a read of the unlinked pack
// is ErrPackGone and no descriptor outlives it, and Close closes the rest.
func TestPackReadHandleClosesWithThePack(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, PackTargetBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var hashes []extent.Hash
	var datas [][]byte
	for i := 0; i < 12; i++ {
		data, h := blob(300+i, 1024)
		datas, hashes = append(datas, data), append(hashes, h)
		put(t, s, data, h)
	}
	meta := func(h extent.Hash) diskMeta {
		sh := s.shardFor(h)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.blobs[h].diskMeta
	}
	first := meta(hashes[0])
	firstPath := s.packs.files.Path(uint64(first.pack))
	// Three reads of the first pack, sealed by now, open one handle.
	for i := 0; i < 3; i++ {
		if _, err := s.ReadInto(hashes[0], make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	if got := fdsOn(t, firstPath); got != 1 {
		t.Fatalf("three reads of one pack hold %d descriptors on it, want 1", got)
	}
	// Compact the first pack away: everything in it but one survivor dies.
	for i := 1; i < len(hashes); i++ {
		if meta(hashes[i]).pack == first.pack {
			s.Release(hashes[i])
		}
	}
	s.Sweep()
	if moved := meta(hashes[0]); moved.pack == first.pack {
		t.Fatalf("pack %d was not compacted", first.pack)
	}
	if _, err := os.Stat(firstPath); !os.IsNotExist(err) {
		t.Fatalf("the compacted pack is still on disk (%v)", err)
	}
	if got := fdsOn(t, firstPath); got != 0 {
		t.Fatalf("%d descriptors outlive the compacted pack", got)
	}
	err = s.packs.readInto(first.pack, first.off, make([]byte, first.size))
	if !errors.Is(err, ErrPackGone) {
		t.Fatalf("read of the compacted pack = %v, want ErrPackGone", err)
	}
	if got := fdsOn(t, firstPath); got != 0 {
		t.Fatalf("the failed read left %d descriptors on the pack", got)
	}
	// The survivor reads from its new pack.
	if got := get(t, s, hashes[0]); !bytes.Equal(got, datas[0]) {
		t.Fatal("the survivor diverged after compaction")
	}
	moved := s.packs.files.Path(uint64(meta(hashes[0]).pack))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fdsOn(t, moved); got != 0 {
		t.Fatalf("%d descriptors on the survivor's pack outlive Close", got)
	}
}

// TestPackCompactionUnderChurn hammers Get/Put/Release/Sweep concurrently with
// tiny packs and an aggressive garbage ratio so compactions run constantly;
// referenced (never-dropped) blobs must stay byte-identical throughout.
// Run with -race this also shakes out the relocMu protocol.
func TestPackCompactionUnderChurn(t *testing.T) {
	s, err := Open(Config{
		Dir:              t.TempDir(),
		PackTargetBytes:  2 << 10,
		packGarbageRatio: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Pinned blobs: put once, never dropped (the archive would hold refs).
	const pinned = 10
	var pinData [][]byte
	var pinHash []extent.Hash
	for i := 0; i < pinned; i++ {
		data, h := blob(300+i, 700+i)
		pinData = append(pinData, data)
		pinHash = append(pinHash, h)
		put(t, s, data, h)
	}

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				// Churn: private blob, read back, drop, sweep (compact).
				data, h := blob(1000+w*1000+i, 512+w)
				put(t, s, data, h)
				if got := get(t, s, h); !bytes.Equal(got, data) {
					t.Errorf("worker %d: churn blob diverged", w)
					return
				}
				s.Release(h)
				if i%3 == 0 {
					s.Sweep()
				}
				// Every pinned blob must survive whatever compaction did.
				p := (w + i) % pinned
				if got := get(t, s, pinHash[p]); !bytes.Equal(got, pinData[p]) {
					t.Errorf("worker %d: pinned blob %d corrupted under compaction churn", w, p)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s.Sweep()
	for i := 0; i < pinned; i++ {
		if got := get(t, s, pinHash[i]); !bytes.Equal(got, pinData[i]) {
			t.Fatalf("pinned blob %d corrupted after churn", i)
		}
	}
	if st := s.Stats(); st.PackCompactions == 0 {
		t.Logf("warning: churn produced no compactions (%+v)", st)
	}
}

// TestLockfileSingleOwner: the archive.lock file makes a second concurrent
// open of the same directory fail fast; Close releases it; a lock from a
// dead process is stolen.
func TestLockfileSingleOwner(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("second open of a locked dir succeeded")
	} else if !strings.Contains(err.Error(), "locked by pid") {
		t.Fatalf("second open failed for the wrong reason: %v", err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, lockName)); !os.IsNotExist(err) {
		t.Fatalf("lockfile survived Close: %v", err)
	}

	// A lock whose owner is gone is stolen (pid 1 is alive → not stolen;
	// an absurd pid is dead → stolen).
	if err := os.WriteFile(filepath.Join(dir, lockName), []byte("999999999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("stale lock not stolen: %v", err)
	}
	s2.Close()

	if err := os.WriteFile(filepath.Join(dir, lockName), []byte("1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("lock held by a live pid was stolen")
	}
	os.Remove(filepath.Join(dir, lockName))
}

// TestCrashReleasesLockAndAdoptsUnsealedPack: Crash releases the lock
// without sealing; the next open adopts the unsealed active pack's records
// (they are self-framing) and keeps serving.
func TestCrashReleasesLockAndAdoptsUnsealedPack(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	data, h := blob(60, 3000)
	put(t, s1, data, h)
	s1.Crash()

	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("open after crash: %v", err)
	}
	defer s2.Close()
	if !s2.Ref(h) {
		t.Fatal("record from the crashed store's active pack not adopted")
	}
	if got := get(t, s2, h); !bytes.Equal(got, data) {
		t.Fatal("adopted record diverged")
	}
}

// TestPackFsyncPolicies: always flushes per append, group flushes at the
// Sync barrier (coalescing), none never flushes.
func TestPackFsyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		policy fsyncer.Policy
		check  func(t *testing.T, s *Store)
	}{
		{fsyncer.PolicyNone, func(t *testing.T, s *Store) {
			if got := s.Stats().Fsyncs; got != 0 {
				t.Fatalf("none issued %d fsyncs", got)
			}
		}},
		{fsyncer.PolicyAlways, func(t *testing.T, s *Store) {
			if got := s.Stats().Fsyncs; got < 4 {
				t.Fatalf("always issued %d fsyncs for 4 appends", got)
			}
		}},
		{fsyncer.PolicyGroup, func(t *testing.T, s *Store) {
			before := s.Stats().Fsyncs
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			if got := s.Stats().Fsyncs; got != before+1 {
				t.Fatalf("group barrier issued %d fsyncs, want 1", got-before)
			}
		}},
	} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			s, err := Open(Config{Dir: t.TempDir(), Fsync: tc.policy})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < 4; i++ {
				data, h := blob(70+i, 900)
				put(t, s, data, h)
			}
			tc.check(t, s)
			// Whatever the policy, the data reads back.
			for i := 0; i < 4; i++ {
				data, h := blob(70+i, 900)
				if got := get(t, s, h); !bytes.Equal(got, data) {
					t.Fatalf("blob %d diverged under policy %v", i, tc.policy)
				}
			}
		})
	}
}

var _ = fmt.Sprintf // keep fmt for debug edits
