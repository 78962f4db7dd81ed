// Benchmarks, one per reproduced table/figure of the paper (see DESIGN.md's
// experiment index). Each exercises the hot path of its experiment under
// testing.B; the full paper-style tables are generated by cmd/dlbench, which
// shares the same harness code.
package datalinks_test

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datalinks"
	"datalinks/internal/archive"
	"datalinks/internal/harness"
)

// benchSystem builds a system with one linked file and returns tokenized
// URL producers.
type benchRig struct {
	sys  *datalinks.System
	fsrv *datalinks.FileServer
	sess *datalinks.Session
}

func newBenchRig(b *testing.B, mode string, fileSize int) *benchRig {
	return newBenchRigServer(b, mode, fileSize,
		datalinks.ServerConfig{Name: "fs1", OpenWait: 5 * time.Second})
}

// newBenchRigServer is newBenchRig with an explicit server config (the
// large-file commit benchmark sets an archive LRU budget).
func newBenchRigServer(b *testing.B, mode string, fileSize int, sc datalinks.ServerConfig) *benchRig {
	b.Helper()
	sys, err := datalinks.Open(datalinks.Config{
		Servers: []datalinks.ServerConfig{sc},
	})
	if err != nil {
		b.Fatal(err)
	}
	fsrv, err := sys.FileServer("fs1")
	if err != nil {
		b.Fatal(err)
	}
	content := make([]byte, fileSize)
	for i := range content {
		content[i] = byte('a' + i%26)
	}
	if err := fsrv.SeedFile("/bench/file.bin", content, 100); err != nil {
		b.Fatal(err)
	}
	sys.MustExec(fmt.Sprintf(`CREATE TABLE bench (id INT PRIMARY KEY, doc DATALINK MODE %s RECOVERY YES, doc_size INT)`, mode))
	sys.MustExec(`INSERT INTO bench (id, doc) VALUES (1, DLVALUE('dlfs://fs1/bench/file.bin'))`)
	return &benchRig{sys: sys, fsrv: fsrv, sess: sys.Session(100)}
}

func (r *benchRig) readURL(b *testing.B) string {
	b.Helper()
	url, err := r.sys.QueryString(`SELECT DLURLCOMPLETE(doc) FROM bench WHERE id = 1`)
	if err != nil {
		b.Fatal(err)
	}
	return url
}

func (r *benchRig) writeURL(b *testing.B) string {
	b.Helper()
	url, err := r.sys.QueryString(`SELECT DLURLCOMPLETEWRITE(doc) FROM bench WHERE id = 1`)
	if err != nil {
		b.Fatal(err)
	}
	return url
}

// BenchmarkT1ControlModes measures the enforcement check itself: an open
// attempt against each control mode (Table 1 semantics on the hot path).
func BenchmarkT1ControlModes(b *testing.B) {
	for _, mode := range []string{"RFF", "RFB", "RDB", "RFD", "RDD"} {
		b.Run(mode, func(b *testing.B) {
			rig := newBenchRig(b, mode, 4096)
			defer rig.sys.Close()
			url := "dlfs://fs1/bench/file.bin"
			if mode == "RDB" || mode == "RDD" {
				url = rig.readURL(b)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := rig.sess.OpenRead(url)
				if err != nil {
					b.Fatal(err)
				}
				f.Close()
			}
		})
	}
}

// BenchmarkF1ArchitectureDump regenerates the Figure 1 component inventory.
func BenchmarkF1ArchitectureDump(b *testing.B) {
	e, ok := harness.Find("F1")
	if !ok {
		b.Fatal("F1 not registered")
	}
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF2ApplicationView regenerates the Figure 2 walk-through.
func BenchmarkF2ApplicationView(b *testing.B) {
	e, ok := harness.Find("F2")
	if !ok {
		b.Fatal("F2 not registered")
	}
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3TokenRetrieval is the §3.2 host-side cost: SELECT of a
// DATALINK column with token generation vs a plain column.
func BenchmarkE3TokenRetrieval(b *testing.B) {
	rig := newBenchRig(b, "RDD", 64)
	defer rig.sys.Close()
	b.Run("PlainColumn", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rig.sys.Query(`SELECT doc_size FROM bench WHERE id = 1`); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DLURLCOMPLETE", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rig.sys.Query(`SELECT DLURLCOMPLETE(doc) FROM bench WHERE id = 1`); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE4OpenReadClose is the §3.2 file-side cost on a 1MB file.
func BenchmarkE4OpenReadClose(b *testing.B) {
	const size = 1 << 20
	b.Run("NativeFS", func(b *testing.B) {
		rig := newBenchRig(b, "RFD", size)
		defer rig.sys.Close()
		// rfd read path touches no upcalls but still flows through DLFS;
		// compare against it with the bare URL.
		url := "dlfs://fs1/bench/file.bin"
		b.SetBytes(size)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f, err := rig.sess.OpenRead(url)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := f.ReadAll(); err != nil {
				b.Fatal(err)
			}
			f.Close()
		}
	})
	b.Run("DLFSWithToken", func(b *testing.B) {
		rig := newBenchRig(b, "RDD", size)
		defer rig.sys.Close()
		url := rig.readURL(b)
		b.SetBytes(size)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f, err := rig.sess.OpenRead(url)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := f.ReadAll(); err != nil {
				b.Fatal(err)
			}
			f.Close()
		}
	})
}

// BenchmarkE5OpenLatency measures the bare open+close per mode and access.
func BenchmarkE5OpenLatency(b *testing.B) {
	cases := []struct {
		name  string
		mode  string
		write bool
	}{
		{"RfdRead", "RFD", false},
		{"RddRead", "RDD", false},
		{"RfdWriteTxn", "RFD", true},
		{"RddWriteTxn", "RDD", true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			rig := newBenchRig(b, c.mode, 4096)
			defer rig.sys.Close()
			var url string
			if c.write {
				url = rig.writeURL(b)
			} else if c.mode == "RDD" {
				url = rig.readURL(b)
			} else {
				url = "dlfs://fs1/bench/file.bin"
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var f *datalinks.File
				var err error
				if c.write {
					f, err = rig.sess.OpenWrite(url)
				} else {
					f, err = rig.sess.OpenRead(url)
				}
				if err != nil {
					b.Fatal(err)
				}
				if err := f.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6UpdateDisciplines measures one full update under each
// discipline (uncontended; the contended comparison is dlbench -exp E6).
func BenchmarkE6UpdateDisciplines(b *testing.B) {
	b.Run("UIP", func(b *testing.B) {
		rig := newBenchRig(b, "RFD", 8192)
		defer rig.sys.Close()
		payload := make([]byte, 8192)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			url := rig.writeURL(b)
			f, err := rig.sess.OpenWrite(url)
			if err != nil {
				b.Fatal(err)
			}
			payload[0] = byte(i)
			if _, err := f.WriteAt(0, payload); err != nil {
				b.Fatal(err)
			}
			if err := f.Close(); err != nil {
				b.Fatal(err)
			}
			rig.fsrv.WaitArchives()
		}
	})
}

// BenchmarkE7CrashRecovery measures restart recovery with one in-flight
// update (the restore path of §4.2).
func BenchmarkE7CrashRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rig := newBenchRig(b, "RFD", 64<<10)
		url := rig.writeURL(b)
		f, err := rig.sess.OpenWrite(url)
		if err != nil {
			b.Fatal(err)
		}
		f.WriteAt(0, []byte("scribble"))
		b.StartTimer()
		if _, err := rig.sys.CrashAndRecoverServer("fs1"); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		rig.sys.Close()
		b.StartTimer()
	}
}

// BenchmarkE8PointInTimeRestore measures a coordinated restore.
func BenchmarkE8PointInTimeRestore(b *testing.B) {
	rig := newBenchRig(b, "RDD", 4096)
	defer rig.sys.Close()
	// Two committed states to flip between.
	s1 := rig.sys.StateID()
	url := rig.writeURL(b)
	f, err := rig.sess.OpenWrite(url)
	if err != nil {
		b.Fatal(err)
	}
	f.WriteAll([]byte("state two content"))
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	rig.fsrv.WaitArchives()
	s2 := rig.sys.StateID()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := s1
		if i%2 == 0 {
			target = s2
		}
		if err := rig.sys.RestoreToState(target); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9UnlinkSync measures a full link+unlink cycle (two host
// transactions with DLFM sub-transactions).
func BenchmarkE9UnlinkSync(b *testing.B) {
	sys, err := datalinks.Open(datalinks.Config{Servers: []datalinks.ServerConfig{{Name: "fs1"}}})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	fsrv, _ := sys.FileServer("fs1")
	if err := fsrv.SeedFile("/d/f.bin", []byte("x"), 100); err != nil {
		b.Fatal(err)
	}
	sys.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY NO)`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Exec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/f.bin'))`); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Exec(`DELETE FROM t WHERE id = 1`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10RfdAnomaly measures one writer round against the anomaly
// detector's read (uncontended baseline for the E10 table).
func BenchmarkE10RfdAnomaly(b *testing.B) {
	rig := newBenchRig(b, "RFD", 64<<10)
	defer rig.sys.Close()
	payload := make([]byte, 64<<10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		url := rig.writeURL(b)
		f, err := rig.sess.OpenWrite(url)
		if err != nil {
			b.Fatal(err)
		}
		for j := range payload {
			payload[j] = byte('A' + i%26)
		}
		f.WriteAt(0, payload)
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		rig.fsrv.WaitArchives()
		r, err := rig.sess.OpenRead("dlfs://fs1/bench/file.bin")
		if err != nil {
			b.Fatal(err)
		}
		r.ReadAll()
		r.Close()
	}
}

// BenchmarkE11OwnershipOptimization contrasts the two read-open designs.
func BenchmarkE11OwnershipOptimization(b *testing.B) {
	for _, strict := range []bool{false, true} {
		name := "OwnershipCheck"
		if strict {
			name = "UpcallPerOpen"
		}
		b.Run(name, func(b *testing.B) {
			sys, err := datalinks.Open(datalinks.Config{
				Servers: []datalinks.ServerConfig{{Name: "fs1", Strict: strict}},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			fsrv, _ := sys.FileServer("fs1")
			if err := fsrv.SeedFile("/d/f.bin", []byte("x"), 100); err != nil {
				b.Fatal(err)
			}
			sys.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY NO)`)
			sys.MustExec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/f.bin'))`)
			sess := sys.Session(100)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := sess.OpenRead("dlfs://fs1/d/f.bin")
				if err != nil {
					b.Fatal(err)
				}
				f.Close()
			}
		})
	}
}

// BenchmarkE12TxnBoundary contrasts the §3.1 transaction boundaries for an
// 8-write update.
func BenchmarkE12TxnBoundary(b *testing.B) {
	const writes = 8
	b.Run("OpenClose", func(b *testing.B) {
		rig := newBenchRig(b, "RFD", 4096)
		defer rig.sys.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			url := rig.writeURL(b)
			f, err := rig.sess.OpenWrite(url)
			if err != nil {
				b.Fatal(err)
			}
			for w := 0; w < writes; w++ {
				f.WriteAt(int64(w), []byte{byte(i)})
			}
			if err := f.Close(); err != nil {
				b.Fatal(err)
			}
			rig.fsrv.WaitArchives()
		}
	})
	b.Run("PerWrite", func(b *testing.B) {
		rig := newBenchRig(b, "RFD", 4096)
		defer rig.sys.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for w := 0; w < writes; w++ {
				url := rig.writeURL(b)
				f, err := rig.sess.OpenWrite(url)
				if err != nil {
					b.Fatal(err)
				}
				f.WriteAt(int64(w), []byte{byte(i)})
				if err := f.Close(); err != nil {
					b.Fatal(err)
				}
				rig.fsrv.WaitArchives()
			}
		}
	})
}

// parallelRig is a system with one linked file (and one table row) per
// worker, so writers never contend on DLFM's per-file serialization and
// SQL row locks stay disjoint — contention measured is the stack's own. It
// serves BenchmarkSmallEditCommitStorm; aggregate read/commit throughput is
// the ledger's hot_read / small_commit (bench/), on the real wire.
type parallelRig struct {
	sys  *datalinks.System
	fsrv *datalinks.FileServer
}

func newParallelRigServer(b *testing.B, mode string, workers, fileSize int, sc datalinks.ServerConfig) *parallelRig {
	b.Helper()
	sys, err := datalinks.Open(datalinks.Config{
		Servers:     []datalinks.ServerConfig{sc},
		LockTimeout: 30 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	fsrv, err := sys.FileServer("fs1")
	if err != nil {
		b.Fatal(err)
	}
	content := make([]byte, fileSize)
	for i := range content {
		content[i] = byte('a' + i%26)
	}
	sys.MustExec(fmt.Sprintf(`CREATE TABLE pbench (id INT PRIMARY KEY, doc DATALINK MODE %s RECOVERY NO, doc_size INT)`, mode))
	for w := 0; w < workers; w++ {
		path := fmt.Sprintf("/bench/f%d.bin", w)
		if err := fsrv.SeedFile(path, content, 100); err != nil {
			b.Fatal(err)
		}
		sys.MustExec(fmt.Sprintf(`INSERT INTO pbench (id, doc) VALUES (%d, DLVALUE('dlfs://fs1%s'))`, w, path))
	}
	return &parallelRig{sys: sys, fsrv: fsrv}
}

func (r *parallelRig) close() {
	r.fsrv.WaitArchives()
	r.sys.Close()
}

// writeURL fetches a fresh tokenized write URL for worker w's row.
func (r *parallelRig) writeURL(w int) (string, error) {
	return r.sys.QueryString(fmt.Sprintf(`SELECT DLURLCOMPLETEWRITE(doc) FROM pbench WHERE id = %d`, w))
}

// runParallel spreads b.N calls of op across gor goroutines (worker ids are
// stable so each goroutine can own a file).
func runParallel(b *testing.B, gor int, op func(worker int) error) {
	b.Helper()
	var next atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, gor)
	b.ReportAllocs()
	b.ResetTimer()
	for w := 0; w < gor; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if next.Add(1) > int64(b.N) {
					return
				}
				if err := op(w); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	select {
	case err := <-errCh:
		b.Fatal(err)
	default:
	}
}

// ---------------------------------------------------------------------------
// Large-file family: per-commit cost must be O(changed bytes), not O(file
// size). A 64 KiB edit to a 64 MiB linked file commits (archive included)
// without reading, copying, or re-archiving the untouched 64 MiB.
// ---------------------------------------------------------------------------

// largeFileSize is the linked-file size the large-file benchmarks edit.
const largeFileSize = 64 << 20

// archPhysicalBytes reports the bytes the archive device physically received
// (new chunks + tails; deduplicated chunks never travel).
func archPhysicalBytes(a *archive.Store) int64 {
	return a.Dedup().NewBytes
}

// largeEditSize is the span each commit actually modifies.
const largeEditSize = 64 << 10

// BenchmarkLargeFileCommit measures one full in-place update transaction
// (open, 64 KiB write, close = commit + archive) against a 64 MiB rfd file,
// with an archive LRU budget of 1/8 of the file: every commit writes its new
// bytes through to the archive's packs and resident memory stays bounded.
// archKB/op reports how many bytes the archive device physically received
// per commit — O(delta), not O(file size); residentMB the LRU at the end,
// spills/op the blobs written per commit.
func BenchmarkLargeFileCommit(b *testing.B) {
	rig := newBenchRigServer(b, "RFD", largeFileSize, datalinks.ServerConfig{
		Name:                "fs1",
		OpenWait:            5 * time.Second,
		ArchiveMemoryBudget: 8 << 20,
	})
	defer rig.sys.Close()
	arch := rig.fsrv.Internal().Archive
	edit := make([]byte, largeEditSize)
	startBytes := archPhysicalBytes(arch)
	b.SetBytes(largeEditSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		url := rig.writeURL(b)
		f, err := rig.sess.OpenWrite(url)
		if err != nil {
			b.Fatal(err)
		}
		// Unique payload per commit: a repeating payload would dedup against
		// earlier versions and under-report the true per-commit delta.
		binary.LittleEndian.PutUint64(edit, uint64(i)+1)
		off := int64(i%(largeFileSize/largeEditSize)) * largeEditSize
		if _, err := f.WriteAt(off, edit); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		rig.fsrv.WaitArchives()
	}
	b.StopTimer()
	b.ReportMetric(float64(archPhysicalBytes(arch)-startBytes)/float64(b.N)/1024, "archKB/op")
	tier := arch.Tier()
	b.ReportMetric(float64(tier.ResidentBytes)/(1<<20), "residentMB")
	b.ReportMetric(float64(tier.Spills)/float64(b.N), "spills/op")
}

// BenchmarkLargeFileRead measures a ranged read (open, 64 KiB ReadAt, close)
// of a 64 MiB rdd file: the cost must track the range, not the file.
func BenchmarkLargeFileRead(b *testing.B) {
	rig := newBenchRig(b, "RDD", largeFileSize)
	defer rig.sys.Close()
	url := rig.readURL(b)
	buf := make([]byte, largeEditSize)
	b.SetBytes(largeEditSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := rig.sess.OpenRead(url)
		if err != nil {
			b.Fatal(err)
		}
		off := int64(i%(largeFileSize/largeEditSize)) * largeEditSize
		if n, err := f.ReadAt(off, buf); err != nil || n != largeEditSize {
			b.Fatalf("read %d bytes, err %v", n, err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSmallEditCommitStorm is the batched-write-path benchmark: 8
// concurrent sessions commit tiny edits to private small rfd files with the
// durable archive tier on, so every commit archives ~1 small blob and 1
// catalog record. Sub-benchmarks sweep the fsync policy; files/commit and
// fsyncs/commit are reported alongside ns/op (aggregate wall time per
// commit). Packfiles keep files/commit at pack creation only (≈ 1/64); group
// must beat always on aggregate commits/s at this concurrency.
func BenchmarkSmallEditCommitStorm(b *testing.B) {
	const (
		gor      = 8
		fileSize = 96 << 10 // one 64 KiB chunk + a 32 KiB tail
		editSize = 512
	)
	for _, fsync := range []string{"none", "always", "group"} {
		b.Run("fsync="+fsync, func(b *testing.B) {
			rig := newParallelRigServer(b, "RFD", gor, fileSize, datalinks.ServerConfig{
				Name:         "fs1",
				OpenWait:     30 * time.Second,
				ArchiveDir:   b.TempDir(),
				ArchiveFsync: fsync,
			})
			defer rig.close()
			arch := rig.fsrv.Internal().Archive
			sessions := make([]*datalinks.Session, gor)
			for w := range sessions {
				sessions[w] = rig.sys.Session(100)
			}
			// Baseline after seeding/link-time v0 archives.
			rig.fsrv.WaitArchives()
			tier0 := arch.Tier()
			chunk0, cat0 := arch.Fsyncs()
			var seq atomic.Int64
			runParallel(b, gor, func(w int) error {
				url, err := rig.writeURL(w)
				if err != nil {
					return err
				}
				f, err := sessions[w].OpenWrite(url)
				if err != nil {
					return err
				}
				edit := make([]byte, editSize)
				binary.LittleEndian.PutUint64(edit, uint64(seq.Add(1)))
				off := (seq.Load() * 13 * editSize) % (fileSize - editSize)
				if _, err := f.WriteAt(off, edit); err != nil {
					return err
				}
				return f.Close()
			})
			rig.fsrv.WaitArchives()
			tier := arch.Tier()
			chunk, cat := arch.Fsyncs()
			b.ReportMetric(float64(tier.FilesCreated-tier0.FilesCreated)/float64(b.N), "files/commit")
			b.ReportMetric(float64((chunk-chunk0)+(cat-cat0))/float64(b.N), "fsyncs/commit")
			b.ReportMetric(float64(tier.PackAppends-tier0.PackAppends)/float64(b.N), "packAppends/commit")
		})
	}
}
