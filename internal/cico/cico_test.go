package cico

import (
	"errors"
	"sync"
	"testing"
	"time"

	"datalinks/internal/archive"
	"datalinks/internal/fs"
	"datalinks/internal/sqlmini"
	"datalinks/internal/wal"
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

func setup(t *testing.T) (*Manager, *fs.FS, *workload.Population) {
	t.Helper()
	lg, err := wal.Open(wal.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lg.Close() })
	db := sqlmini.NewDB(sqlmini.Options{Log: lg, LockTimeout: time.Second})
	phys := fs.New()
	arch := newArchive(t)
	pop, err := workload.Seed(phys, "/w", 3, 128, 100, workload.RNG(1))
	if err != nil {
		t.Fatalf("seed: %v", err)
	}
	m, err := New(db, phys, arch, "fs1", nil)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	return m, phys, pop
}

func TestCheckOutBlocksSecondCheckout(t *testing.T) {
	m, _, pop := setup(t)
	url := pop.URL("fs1", 0)
	tk, err := m.CheckOut(100, url)
	if err != nil {
		t.Fatalf("checkout: %v", err)
	}
	if _, err := m.CheckOut(101, url); !errors.Is(err, ErrCheckedOut) {
		t.Fatalf("second checkout = %v", err)
	}
	if holder, ok := m.Holder(url); !ok || holder != 100 {
		t.Fatalf("holder = %d, %v", holder, ok)
	}
	if err := m.CheckIn(tk); err != nil {
		t.Fatalf("checkin: %v", err)
	}
	if _, ok := m.Holder(url); ok {
		t.Fatal("lock not released")
	}
	if _, err := m.CheckOut(101, url); err != nil {
		t.Fatalf("checkout after release: %v", err)
	}
}

func TestCheckInWritesContentAndArchives(t *testing.T) {
	m, phys, pop := setup(t)
	url := pop.URL("fs1", 0)
	tk, _ := m.CheckOut(100, url)
	tk.Content = []byte("edited content")
	if err := m.CheckIn(tk); err != nil {
		t.Fatalf("checkin: %v", err)
	}
	data, _ := phys.ReadFile(pop.Paths[0])
	if string(data) != "edited content" {
		t.Fatalf("content = %q", data)
	}
}

func TestTicketSingleUse(t *testing.T) {
	m, _, pop := setup(t)
	tk, _ := m.CheckOut(100, pop.URL("fs1", 0))
	m.CheckIn(tk)
	if err := m.CheckIn(tk); !errors.Is(err, ErrStale) {
		t.Fatalf("double checkin = %v", err)
	}
	tk2, _ := m.CheckOut(100, pop.URL("fs1", 0))
	if err := m.Cancel(tk2); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if err := m.Cancel(tk2); !errors.Is(err, ErrStale) {
		t.Fatalf("double cancel = %v", err)
	}
}

func TestCancelDoesNotWrite(t *testing.T) {
	m, phys, pop := setup(t)
	before, _ := phys.ReadFile(pop.Paths[1])
	tk, _ := m.CheckOut(100, pop.URL("fs1", 1))
	tk.Content = []byte("should not land")
	m.Cancel(tk)
	after, _ := phys.ReadFile(pop.Paths[1])
	if string(before) != string(after) {
		t.Fatal("cancel wrote content")
	}
	if _, ok := m.Holder(pop.URL("fs1", 1)); ok {
		t.Fatal("cancel left the lock")
	}
}

func TestHoardingVisible(t *testing.T) {
	// The §3 criticism: one application checks out many files in advance.
	m, _, pop := setup(t)
	for i := 0; i < 3; i++ {
		if _, err := m.CheckOut(100, pop.URL("fs1", i)); err != nil {
			t.Fatalf("hoard %d: %v", i, err)
		}
	}
	if n := m.OutstandingCheckouts(); n != 3 {
		t.Fatalf("outstanding = %d", n)
	}
	// Everyone else is starved.
	for i := 0; i < 3; i++ {
		if _, err := m.CheckOut(101, pop.URL("fs1", i)); !errors.Is(err, ErrCheckedOut) {
			t.Fatalf("starved checkout %d = %v", i, err)
		}
	}
}

func TestConcurrentCheckoutsOneWinner(t *testing.T) {
	m, _, pop := setup(t)
	url := pop.URL("fs1", 0)
	var wins int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(uid int32) {
			defer wg.Done()
			if tk, err := m.CheckOut(fs.UID(uid), url); err == nil {
				mu.Lock()
				wins++
				mu.Unlock()
				m.CheckIn(tk)
			}
		}(int32(200 + i))
	}
	wg.Wait()
	if wins < 1 {
		t.Fatal("no checkout won")
	}
	// All locks released at the end.
	if m.OutstandingCheckouts() != 0 {
		t.Fatalf("outstanding = %d", m.OutstandingCheckouts())
	}
}

func TestCheckOutMissingFile(t *testing.T) {
	m, _, _ := setup(t)
	if _, err := m.CheckOut(100, "dlfs://fs1/missing.dat"); err == nil {
		t.Fatal("checkout of missing file succeeded")
	}
	// The failed checkout must not leave a dangling lock.
	if m.OutstandingCheckouts() != 0 {
		t.Fatal("dangling lock after failed checkout")
	}
}
