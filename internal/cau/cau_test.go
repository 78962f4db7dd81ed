package cau

import (
	"bytes"
	"errors"
	"testing"

	"datalinks/internal/archive"
	"datalinks/internal/fs"
	"datalinks/internal/workload"
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

func setup(t *testing.T) (*Manager, *fs.FS, *workload.Population) {
	t.Helper()
	phys := fs.New()
	arch := newArchive(t)
	pop, err := workload.Seed(phys, "/w", 2, 64, 100, workload.RNG(2))
	if err != nil {
		t.Fatalf("seed: %v", err)
	}
	return New(phys, arch, "fs1", nil), phys, pop
}

func TestCopyDoesNotLock(t *testing.T) {
	m, _, pop := setup(t)
	url := pop.URL("fs1", 0)
	c1, err := m.Copy(url)
	if err != nil {
		t.Fatalf("copy 1: %v", err)
	}
	c2, err := m.Copy(url)
	if err != nil {
		t.Fatalf("copy 2 (concurrent): %v", err)
	}
	if c1 == nil || c2 == nil {
		t.Fatal("copies nil")
	}
}

func TestBlindCheckInLastWriterWins(t *testing.T) {
	m, phys, pop := setup(t)
	url := pop.URL("fs1", 0)
	c1, _ := m.Copy(url)
	c2, _ := m.Copy(url)
	c1.Content = []byte("writer-1")
	c2.Content = []byte("writer-2")
	if err := m.CheckInBlind(c1); err != nil {
		t.Fatalf("checkin 1: %v", err)
	}
	if err := m.CheckInBlind(c2); err != nil {
		t.Fatalf("checkin 2: %v", err)
	}
	data, _ := phys.ReadFile(pop.Paths[0])
	if string(data) != "writer-2" {
		t.Fatalf("content = %q", data)
	}
	_, lost, _, _ := m.Stats()
	if lost != 1 {
		t.Fatalf("lost updates = %d, want 1 (writer-1's update was overwritten)", lost)
	}
}

func TestSafeCheckInDetectsConflict(t *testing.T) {
	m, _, pop := setup(t)
	url := pop.URL("fs1", 0)
	c1, _ := m.Copy(url)
	c2, _ := m.Copy(url)
	c1.Content = []byte("writer-1")
	c2.Content = []byte("writer-2")
	if err := m.CheckInSafe(c1, nil); err != nil {
		t.Fatalf("checkin 1: %v", err)
	}
	if err := m.CheckInSafe(c2, nil); !errors.Is(err, ErrConflict) {
		t.Fatalf("conflicting checkin = %v, want ErrConflict", err)
	}
	_, lost, _, rejects := m.Stats()
	if lost != 0 || rejects != 1 {
		t.Fatalf("lost=%d rejects=%d", lost, rejects)
	}
}

func TestSafeCheckInMerges(t *testing.T) {
	m, phys, pop := setup(t)
	url := pop.URL("fs1", 0)
	c1, _ := m.Copy(url)
	c2, _ := m.Copy(url)
	c1.Content = []byte("one")
	c2.Content = []byte("two")
	if err := m.CheckInSafe(c1, nil); err != nil {
		t.Fatalf("checkin 1: %v", err)
	}
	merge := func(base, mine, theirs []byte) ([]byte, error) {
		return append(append([]byte{}, theirs...), mine...), nil
	}
	if err := m.CheckInSafe(c2, merge); err != nil {
		t.Fatalf("merged checkin: %v", err)
	}
	data, _ := phys.ReadFile(pop.Paths[0])
	if string(data) != "onetwo" {
		t.Fatalf("merged content = %q", data)
	}
	_, lost, merges, _ := m.Stats()
	if lost != 0 || merges != 1 {
		t.Fatalf("lost=%d merges=%d", lost, merges)
	}
}

func TestMergeFailureRejects(t *testing.T) {
	m, _, pop := setup(t)
	url := pop.URL("fs1", 0)
	c1, _ := m.Copy(url)
	c2, _ := m.Copy(url)
	m.CheckInBlind(c1)
	failMerge := func(base, mine, theirs []byte) ([]byte, error) {
		return nil, errors.New("cannot reconcile")
	}
	if err := m.CheckInSafe(c2, failMerge); err == nil {
		t.Fatal("failed merge accepted")
	}
}

func TestWorkCopySingleUse(t *testing.T) {
	m, _, pop := setup(t)
	c, _ := m.Copy(pop.URL("fs1", 0))
	m.CheckInBlind(c)
	if err := m.CheckInBlind(c); !errors.Is(err, ErrStale) {
		t.Fatalf("double checkin = %v", err)
	}
	c2, _ := m.Copy(pop.URL("fs1", 0))
	m.Discard(c2)
	if err := m.CheckInSafe(c2, nil); !errors.Is(err, ErrStale) {
		t.Fatalf("checkin after discard = %v", err)
	}
}

func TestCheckInArchivesVersions(t *testing.T) {
	m, _, pop := setup(t)
	c1, _ := m.Copy(pop.URL("fs1", 1))
	c1.Content = []byte("v1")
	m.CheckInBlind(c1)
	c2, _ := m.Copy(pop.URL("fs1", 1))
	c2.Content = []byte("v2")
	m.CheckInBlind(c2)
	vs := m.arch.Versions("fs1", pop.Paths[1])
	if len(vs) != 2 || !bytes.Equal(bytesOf(t, vs[1]), []byte("v2")) {
		t.Fatalf("versions = %+v", vs)
	}
}

func TestBaseIsSnapshot(t *testing.T) {
	m, _, pop := setup(t)
	c, _ := m.Copy(pop.URL("fs1", 0))
	orig := string(c.base)
	c.Content[0] ^= 0xff // editing the copy must not change the base
	if string(c.base) != orig {
		t.Fatal("base aliased the working content")
	}
}
