// Benchmarks of the data plane's cost shape: a large-file commit and read
// that must track the edited range, not the file, and a batched small-commit
// storm across fsync policies. The paper's tables and figures are generated
// by cmd/dlbench (dlbench -exp <ID>), which TestRunAllExperiments runs; the
// end-to-end performance ledger is the bench module.
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
// large-file commit benchmark sets a memory budget).
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
// with a memory budget (ArchiveMemoryBudget) of 1/8 of the file: every commit
// writes its new bytes through to the archive's packs, and the file system
// pages clean chunks out so its resident chunks stay within the budget.
// archKB/op reports how many bytes the archive device physically received
// per commit — O(delta), not O(file size); residentMB the file system's
// resident chunks at the end (fs.resident_bytes), spills/op the blobs
// written per commit.
func BenchmarkLargeFileCommit(b *testing.B) {
	rig := newBenchRigServer(b, "RFD", largeFileSize, datalinks.ServerConfig{
		Name:                "fs1",
		OpenWait:            5 * time.Second,
		ArchiveMemoryBudget: 8 << 20,
	})
	defer rig.sys.Close()
	srv := rig.fsrv.Internal()
	arch := srv.Archive
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
	}
	b.StopTimer()
	b.ReportMetric(float64(archPhysicalBytes(arch)-startBytes)/float64(b.N)/1024, "archKB/op")
	b.ReportMetric(float64(srv.Phys.ResidentBytes())/(1<<20), "residentMB")
	b.ReportMetric(float64(arch.Tier().Spills)/float64(b.N), "spills/op")
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
			tier := arch.Tier()
			chunk, cat := arch.Fsyncs()
			b.ReportMetric(float64(tier.FilesCreated-tier0.FilesCreated)/float64(b.N), "files/commit")
			b.ReportMetric(float64((chunk-chunk0)+(cat-cat0))/float64(b.N), "fsyncs/commit")
			b.ReportMetric(float64(tier.PackAppends-tier0.PackAppends)/float64(b.N), "packAppends/commit")
		})
	}
}
