package datalinks_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"datalinks"
)

// One read of a linked file — the token SELECT, the open, a 16 KiB read and
// the close — allocates only what it keeps. Measured 7: the SELECT's
// transaction and the tokenized URL; the lookup's node, the DLFS open and
// the descriptor; the DLFM's open; the File. An untraced span boxes no
// attribute, the SELECT builds no result set, the name handed to the file
// system is a slice of the URL, and the path's sync entry is a spare its
// last close put back.
func TestTokenReadAllocBudget(t *testing.T) {
	sys, fsrv := openSys(t)
	content := bytes.Repeat([]byte("0123456789abcdef"), 1<<12) // 64 KiB
	if err := fsrv.SeedFile("/docs/hot.bin", content, 100); err != nil {
		t.Fatal(err)
	}
	sys.MustExec(`CREATE TABLE docs (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES)`)
	sys.MustExec(`INSERT INTO docs VALUES (1, DLVALUE('dlfs://fs1/docs/hot.bin'))`)
	sess := sys.Session(100)
	buf := make([]byte, 16<<10)
	read := func() {
		url, err := sys.QueryString(`SELECT DLURLCOMPLETE(doc) FROM docs WHERE id = ?`, 1)
		if err != nil {
			t.Fatal(err)
		}
		f, err := sess.OpenRead(url)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := f.ReadAt(16<<10, buf); err != nil || n != len(buf) {
			t.Fatalf("read %d, %v", n, err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	read()
	if !bytes.Equal(buf, content[16<<10:32<<10]) {
		t.Fatal("read the wrong bytes")
	}
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	const budget = 7 // measured 7
	n := testing.AllocsPerRun(200, read)
	t.Logf("token SELECT + open + 16 KiB read + close: %.1f mallocs", n)
	if n > budget {
		t.Fatalf("token SELECT + open + 16 KiB read + close: %.1f mallocs, budget %d", n, budget)
	}
}

// A process that runs a catalogue for years must not grow with every
// commit. After 500 warm-up commits, 3 000 more 4 KiB in-place updates of
// one 256 KiB rdd RECOVERY YES file retain at most 450 B of heap each, under
// group fsync and under none: about what the archive's version index keeps
// per version, so neither log may keep anything per commit in memory.
func TestRetainedHeapPerCommit(t *testing.T) {
	if raceEnabled {
		t.Skip("heap budgets are not meaningful under the race detector")
	}
	const (
		warmup  = 500
		commits = 3000
		budget  = 450
	)
	for _, fsync := range []string{"group", "none"} {
		t.Run(fsync, func(t *testing.T) {
			sys, err := datalinks.Open(datalinks.Config{
				Servers:     []datalinks.ServerConfig{{Name: "fs1", OpenWait: time.Second, RepoFsync: fsync}},
				LockTimeout: time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			closeAtEnd(t, sys)
			fsrv, err := sys.FileServer("fs1")
			if err != nil {
				t.Fatal(err)
			}
			if err := fsrv.SeedFile("/docs/big.bin", bytes.Repeat([]byte{7}, 256<<10), 100); err != nil {
				t.Fatal(err)
			}
			sys.MustExec(`CREATE TABLE docs (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES, doc_size INT)`)
			sys.MustExec(`INSERT INTO docs VALUES (1, DLVALUE('dlfs://fs1/docs/big.bin'), 0)`)
			sess := sys.Session(100)
			edit := make([]byte, 4<<10)
			commit := func(i int) {
				url, err := sys.QueryString(`SELECT DLURLCOMPLETEWRITE(doc) FROM docs WHERE id = 1`)
				if err != nil {
					t.Fatal(err)
				}
				f, err := sess.OpenWrite(url)
				if err != nil {
					t.Fatal(err)
				}
				binary.LittleEndian.PutUint64(edit, uint64(i))
				if _, err := f.WriteAt(int64(i%64)*int64(len(edit)), edit); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
			}
			heap := func() uint64 {
				var ms runtime.MemStats
				runtime.GC()
				runtime.GC()
				runtime.ReadMemStats(&ms)
				return ms.HeapAlloc
			}
			for i := 0; i < warmup; i++ {
				commit(i)
			}
			before := heap()
			for i := warmup; i < warmup+commits; i++ {
				commit(i)
			}
			after := heap()
			per := (float64(after) - float64(before)) / commits
			t.Logf("fsync %s: %.0f B retained per commit", fsync, per)
			if per > budget {
				t.Fatalf("fsync %s: %.0f B of heap retained per commit, budget %d", fsync, per, budget)
			}
		})
	}
}
