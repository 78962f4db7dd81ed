package datalinks_test

import (
	"bytes"
	"testing"
)

// One read of a linked file — the token SELECT, the open, a 16 KiB read and
// the close — allocates only what it keeps. Measured 8: the SELECT's
// transaction and the tokenized URL; the lookup's node, the DLFS open and
// the descriptor; the DLFM's open and its sync entry; the File. An untraced
// span boxes no attribute, the SELECT builds no result set, and the name
// handed to the file system is a slice of the URL (20 before).
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
	const budget = 8 // measured 8
	n := testing.AllocsPerRun(200, read)
	t.Logf("token SELECT + open + 16 KiB read + close: %.1f mallocs", n)
	if n > budget {
		t.Fatalf("token SELECT + open + 16 KiB read + close: %.1f mallocs, budget %d", n, budget)
	}
}
