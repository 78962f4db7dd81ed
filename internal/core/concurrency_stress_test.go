package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"datalinks/internal/fs"
	"datalinks/internal/workload"
)

// TestConcurrentSessionsStress is the system-level -race stress test: many
// sessions doing open-write-close on rfd and rdd files across multiple file
// servers concurrently, with link/unlink churn and shared readers running
// alongside. Afterwards the paper's core invariants (the ones
// invariants_test.go checks per step) must hold for every file:
//
//  1. file content equals the last committed version;
//  2. the newest archived version matches that content;
//  3. the database's companion size column matches the file;
//  4. no open, sync entry, or update entry leaks.
func TestConcurrentSessionsStress(t *testing.T) {
	sys, err := NewSystem(Config{
		Servers: []ServerConfig{
			{Name: "fs1", OpenWait: 10 * time.Second},
			{Name: "fs2", OpenWait: 10 * time.Second},
		},
		LockTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	sys.DB().MustExec(`CREATE TABLE srfd (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES, doc_size INT)`)
	sys.DB().MustExec(`CREATE TABLE srdd (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES, doc_size INT)`)
	sys.DB().MustExec(`CREATE TABLE schurn (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY NO)`)

	const (
		writers = 8
		iters   = 10
		readers = 4
	)

	type writerState struct {
		table     string
		server    string
		path      string
		id        int
		committed []byte
	}
	states := make([]*writerState, writers)
	for i := 0; i < writers; i++ {
		server := fmt.Sprintf("fs%d", i%2+1)
		table := "srfd"
		if i%2 == 1 {
			table = "srdd"
		}
		srv, err := sys.Server(server)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Phys.MkdirAll("/s", fs.Cred{UID: fs.Root}, 0o777); err != nil {
			t.Fatal(err)
		}
		path := fmt.Sprintf("/s/w%d.bin", i)
		content := workload.UniformContent(256, i)
		if err := srv.Phys.WriteFile(path, content); err != nil {
			t.Fatal(err)
		}
		ino, _ := srv.Phys.Lookup(path)
		srv.Phys.Chown(ino, fs.Cred{UID: fs.Root}, alice)
		srv.Phys.Chmod(ino, fs.Cred{UID: alice}, 0o644)
		if _, err := sys.DB().Exec(fmt.Sprintf(
			`INSERT INTO %s VALUES (%d, DLVALUE('dlfs://%s%s'), NULL)`, table, i, server, path)); err != nil {
			t.Fatal(err)
		}
		states[i] = &writerState{table: table, server: server, path: path, id: i, committed: content}
	}

	// A static rdd file shared by the concurrent readers (never written).
	sharedContent := workload.UniformContent(1024, 999)
	{
		srv, _ := sys.Server("fs1")
		if err := srv.Phys.WriteFile("/s/shared.bin", sharedContent); err != nil {
			t.Fatal(err)
		}
		ino, _ := srv.Phys.Lookup("/s/shared.bin")
		srv.Phys.Chown(ino, fs.Cred{UID: fs.Root}, alice)
		srv.Phys.Chmod(ino, fs.Cred{UID: alice}, 0o644)
		sys.DB().MustExec(`INSERT INTO srdd VALUES (1000, DLVALUE('dlfs://fs1/s/shared.bin'), NULL)`)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers+4)

	// Writers: repeated full update transactions on their own file, with a
	// read-back verification per iteration for the rdd ones.
	for _, st := range states {
		wg.Add(1)
		go func(st *writerState) {
			defer wg.Done()
			sess := sys.NewSession(alice)
			for k := 1; k <= iters; k++ {
				row, err := sys.DB().QueryRow(fmt.Sprintf(
					`SELECT DLURLCOMPLETEWRITE(doc) FROM %s WHERE id = %d`, st.table, st.id))
				if err != nil {
					errCh <- fmt.Errorf("writer %d url: %w", st.id, err)
					return
				}
				f, err := sess.OpenWrite(row[0].S)
				if err != nil {
					errCh <- fmt.Errorf("writer %d open: %w", st.id, err)
					return
				}
				next := workload.UniformContent(256+8*k, st.id*1000+k)
				if err := f.WriteAll(next); err != nil {
					errCh <- fmt.Errorf("writer %d write: %w", st.id, err)
					return
				}
				if err := f.Close(); err != nil {
					errCh <- fmt.Errorf("writer %d close: %w", st.id, err)
					return
				}
				st.committed = next
				if st.table == "srdd" {
					row, err := sys.DB().QueryRow(fmt.Sprintf(
						`SELECT DLURLCOMPLETE(doc) FROM srdd WHERE id = %d`, st.id))
					if err != nil {
						errCh <- fmt.Errorf("writer %d read url: %w", st.id, err)
						return
					}
					rf, err := sess.OpenRead(row[0].S)
					if err != nil {
						errCh <- fmt.Errorf("writer %d read open: %w", st.id, err)
						return
					}
					data, err := rf.ReadAll()
					rf.Close()
					if err != nil {
						errCh <- fmt.Errorf("writer %d read: %w", st.id, err)
						return
					}
					if !bytes.Equal(data, st.committed) {
						errCh <- fmt.Errorf("writer %d read back %d bytes, want %d (torn or stale)",
							st.id, len(data), len(st.committed))
						return
					}
				}
			}
		}(st)
	}

	// Shared readers: the static rdd file must always read back identical.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sess := sys.NewSession(alice)
			for k := 0; k < iters*2; k++ {
				row, err := sys.DB().QueryRow(`SELECT DLURLCOMPLETE(doc) FROM srdd WHERE id = 1000`)
				if err != nil {
					errCh <- fmt.Errorf("reader %d url: %w", r, err)
					return
				}
				f, err := sess.OpenRead(row[0].S)
				if err != nil {
					errCh <- fmt.Errorf("reader %d open: %w", r, err)
					return
				}
				data, err := f.ReadAll()
				f.Close()
				if err != nil {
					errCh <- fmt.Errorf("reader %d read: %w", r, err)
					return
				}
				if !bytes.Equal(data, sharedContent) {
					errCh <- fmt.Errorf("reader %d saw modified shared content", r)
					return
				}
			}
		}(r)
	}

	// Link/unlink churn: each churner repeatedly links and unlinks its own
	// file through SQL insert/delete, exercising the 2PC sub-transaction
	// path concurrently with the updates above.
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			server := fmt.Sprintf("fs%d", c%2+1)
			srv, err := sys.Server(server)
			if err != nil {
				errCh <- err
				return
			}
			path := fmt.Sprintf("/s/churn%d.bin", c)
			if err := srv.Phys.WriteFile(path, []byte("churn content")); err != nil {
				errCh <- err
				return
			}
			ino, _ := srv.Phys.Lookup(path)
			srv.Phys.Chown(ino, fs.Cred{UID: fs.Root}, alice)
			srv.Phys.Chmod(ino, fs.Cred{UID: alice}, 0o644)
			id := 2000 + c
			for k := 0; k < iters; k++ {
				if _, err := sys.DB().Exec(fmt.Sprintf(
					`INSERT INTO schurn VALUES (%d, DLVALUE('dlfs://%s%s'))`, id, server, path)); err != nil {
					errCh <- fmt.Errorf("churner %d link: %w", c, err)
					return
				}
				if _, err := sys.DB().Exec(fmt.Sprintf(`DELETE FROM schurn WHERE id = %d`, id)); err != nil {
					errCh <- fmt.Errorf("churner %d unlink: %w", c, err)
					return
				}
			}
		}(c)
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Check the invariants for every writer file.
	for _, st := range states {
		srv, _ := sys.Server(st.server)
		data, err := srv.Phys.ReadFile(st.path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, st.committed) {
			t.Fatalf("%s: content differs from last committed version", st.path)
		}
		vs := srv.Archive.Versions(st.server, st.path)
		if len(vs) == 0 || !bytes.Equal(bytesOf(t, vs[len(vs)-1]), st.committed) {
			t.Fatalf("%s: newest archived version does not match last committed content", st.path)
		}
		row, err := sys.DB().QueryRow(fmt.Sprintf(`SELECT doc_size FROM %s WHERE id = %d`, st.table, st.id))
		if err != nil {
			t.Fatal(err)
		}
		if row[0].I != int64(len(st.committed)) {
			t.Fatalf("%s: doc_size=%d, want %d", st.path, row[0].I, len(st.committed))
		}
	}
	// Nothing leaked: no opens, no update entries, no sync writers.
	for _, name := range []string{"fs1", "fs2"} {
		srv, _ := sys.Server(name)
		if n := srv.DLFM.OpenCount(); n != 0 {
			t.Fatalf("%s: %d opens leaked", name, n)
		}
		if inflight := srv.DLFM.UpdatesInFlight(); len(inflight) != 0 {
			t.Fatalf("%s: update entries leaked: %v", name, inflight)
		}
		if n := srv.LFS.OpenCount(); n != 0 {
			t.Fatalf("%s: %d LFS descriptors leaked", name, n)
		}
	}
	// The churned rows are all unlinked again.
	for c := 0; c < 4; c++ {
		server := fmt.Sprintf("fs%d", c%2+1)
		srv, _ := sys.Server(server)
		if srv.DLFM.IsLinked(fmt.Sprintf("/s/churn%d.bin", c)) {
			t.Fatalf("churn file %d still linked after final unlink", c)
		}
	}
}
