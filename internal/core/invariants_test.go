package core

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"datalinks/internal/fs"
	"datalinks/internal/workload"
)

// op is one step of a random schedule against a single rdd-linked file.
type op byte

const (
	opCommit op = iota // open, write new version, close (commit)
	opAbort            // open, write garbage, explicit abort
	opCrash            // open, write garbage, crash the file server
	opRead             // open with token, read fully, close
)

// TestUpdateAtomicityProperty drives random schedules of commits, aborts,
// crashes and reads and checks the paper's core invariants after every step:
//
//  1. the file content always equals the last *committed* version;
//  2. reads never observe a torn mixture of versions;
//  3. the newest archived version always matches the last committed content;
//  4. the database's companion size column always matches the file.
func TestUpdateAtomicityProperty(t *testing.T) {
	prop := func(schedule []byte) bool {
		if len(schedule) > 12 {
			schedule = schedule[:12]
		}
		sys, err := NewSystem(Config{
			Servers:     []ServerConfig{{Name: "fs1", OpenWait: 200 * time.Millisecond}},
			LockTimeout: time.Second,
		})
		if err != nil {
			return false
		}
		defer sys.Close()
		srv, _ := sys.Server("fs1")
		if err := srv.Phys.MkdirAll("/d", fs.Cred{UID: fs.Root}, 0o777); err != nil {
			return false
		}
		committed := workload.UniformContent(512, 0)
		if err := srv.Phys.WriteFile("/d/f.bin", committed); err != nil {
			return false
		}
		ino, _ := srv.Phys.Lookup("/d/f.bin")
		srv.Phys.Chown(ino, fs.Cred{UID: fs.Root}, alice)
		srv.Phys.Chmod(ino, fs.Cred{UID: alice}, 0o644)
		sys.DB().MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES, doc_size INT)`)
		if _, err := sys.DB().Exec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/f.bin'), NULL)`); err != nil {
			return false
		}
		sess := sys.NewSession(alice)
		version := 0
		lastCommittedSize := int64(-1) // NULL until the first commit

		check := func() bool {
			cur, _ := sys.Server("fs1")
			data, err := cur.Phys.ReadFile("/d/f.bin")
			if err != nil || !bytes.Equal(data, committed) {
				return false
			}
			vs := cur.Archive.Versions("fs1", "/d/f.bin")
			if len(vs) == 0 || !bytes.Equal(bytesOf(t, vs[len(vs)-1]), committed) {
				return false
			}
			row, err := sys.DB().QueryRow(`SELECT doc_size FROM t WHERE id = 1`)
			if err != nil {
				return false
			}
			if lastCommittedSize < 0 {
				return row[0].IsNull()
			}
			return row[0].I == lastCommittedSize
		}

		for i, step := range schedule {
			switch op(step % 4) {
			case opCommit:
				row, err := sys.DB().QueryRow(`SELECT DLURLCOMPLETEWRITE(doc) FROM t WHERE id = 1`)
				if err != nil {
					return false
				}
				f, err := sess.OpenWrite(row[0].S)
				if err != nil {
					return false
				}
				version++
				next := workload.UniformContent(512+16*version, version)
				if err := f.WriteAll(next); err != nil {
					return false
				}
				if err := f.Close(); err != nil {
					return false
				}
				committed = next
				lastCommittedSize = int64(len(next))
			case opAbort:
				row, err := sys.DB().QueryRow(`SELECT DLURLCOMPLETEWRITE(doc) FROM t WHERE id = 1`)
				if err != nil {
					return false
				}
				f, err := sess.OpenWrite(row[0].S)
				if err != nil {
					return false
				}
				f.WriteAll([]byte(fmt.Sprintf("garbage %d", i)))
				if err := f.Abort(); err != nil {
					return false
				}
			case opCrash:
				row, err := sys.DB().QueryRow(`SELECT DLURLCOMPLETEWRITE(doc) FROM t WHERE id = 1`)
				if err != nil {
					return false
				}
				f, err := sess.OpenWrite(row[0].S)
				if err != nil {
					return false
				}
				f.WriteAll([]byte(fmt.Sprintf("in-flight %d", i)))
				if _, err := sys.CrashAndRecoverServer("fs1"); err != nil {
					return false
				}
				sess = sys.NewSession(alice) // sessions outlive the server handle
			case opRead:
				row, err := sys.DB().QueryRow(`SELECT DLURLCOMPLETE(doc) FROM t WHERE id = 1`)
				if err != nil {
					return false
				}
				f, err := sess.OpenRead(row[0].S)
				if err != nil {
					return false
				}
				data, err := f.ReadAll()
				f.Close()
				if err != nil || !bytes.Equal(data, committed) {
					return false
				}
			}
			if !check() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
