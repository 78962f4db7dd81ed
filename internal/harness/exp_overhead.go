package harness

import (
	"fmt"
	"time"

	"datalinks/internal/core"
	"datalinks/internal/fs"
	"datalinks/internal/sqlmini"
	"datalinks/internal/vfs"
	"datalinks/internal/workload"
)

func init() {
	Register(Experiment{
		ID:    "E3",
		Title: "Host-side overhead: DATALINK retrieval incl. token generation (§3.2)",
		Paper: "\"less than 3ms overhead for retrieving a DATALINK column, including access token generation\" (200MHz PowerPC 604).",
		Run:   runE3,
	})
	Register(Experiment{
		ID:    "E4",
		Title: "File-side overhead: open/read/close through DLFS vs native (§3.2)",
		Paper: "\"DLFS layer and token validation add about 1ms to open, read, and close\"; \"<1% overhead for reading a 1MB file, ~3% CPU-only\".",
		Run:   runE4,
	})
	Register(Experiment{
		ID:    "E5",
		Title: "Open response time per control mode (§5 claim)",
		Paper: "\"only minor difference in the response time between opening a DataLinks managed file and a file system managed file\".",
		Run:   runE5,
	})
}

// runE3 compares SELECT of a plain VARCHAR column against a DATALINK column
// with DLURLCOMPLETE (token generation), isolating the host-side cost.
func runE3() ([]*Table, error) {
	sys, srv, err := expSystem(false, 0)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	const rows = 2000
	rng := workload.RNG(3)
	pop, err := workload.Seed(srv.Phys, "/files", rows, 64, expUID, rng)
	if err != nil {
		return nil, err
	}
	sys.DB.MustExec(`CREATE TABLE docs (id INT PRIMARY KEY, plain VARCHAR, doc DATALINK MODE RDD RECOVERY NO)`)
	for i := 0; i < rows; i++ {
		if _, err := sys.DB.Exec(`INSERT INTO docs VALUES (?, ?, ?)`,
			sqlmini.Int(int64(i)), sqlmini.Str(pop.URL("fs1", i)), sqlmini.Str(pop.URL("fs1", i))); err != nil {
			return nil, err
		}
	}
	const probes = 2000
	measure := func(stmt string) (Stats, error) {
		i := 0
		return Measure(probes, func() error {
			id := sqlmini.Int(int64(i % rows))
			i++
			_, err := sys.DB.QueryRow(stmt, id)
			return err
		})
	}
	plain, err := measure(`SELECT plain FROM docs WHERE id = ?`)
	if err != nil {
		return nil, err
	}
	link, err := measure(`SELECT doc FROM docs WHERE id = ?`)
	if err != nil {
		return nil, err
	}
	tokenized, err := measure(`SELECT DLURLCOMPLETE(doc) FROM docs WHERE id = ?`)
	if err != nil {
		return nil, err
	}
	writeTok, err := measure(`SELECT DLURLCOMPLETEWRITE(doc) FROM docs WHERE id = ?`)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Caption: "E3. Per-row SELECT latency at the host database (2000 probes)",
		Headers: []string{"query", "mean", "p50", "p95", "overhead vs plain"},
	}
	base := float64(plain.Mean)
	add := func(name string, s Stats) {
		t.AddRow(name, Dur(s.Mean), Dur(s.P50), Dur(s.P95),
			fmt.Sprintf("+%s", Dur(time.Duration(float64(s.Mean)-base))))
	}
	add("plain VARCHAR", plain)
	add("DATALINK (no token)", link)
	add("DLURLCOMPLETE (read token)", tokenized)
	add("DLURLCOMPLETEWRITE (write token)", writeTok)
	t.Note("paper reported <3ms absolute on 1998 hardware; the reproducible shape is a small constant additive cost for token generation (HMAC-SHA256)")
	return []*Table{t}, nil
}

// runE4 measures open+read+close of files of growing size, native vs DLFS
// with a read token (rdb), at two injected IPC costs.
func runE4() ([]*Table, error) {
	sizes := []int{64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20}
	latencies := []time.Duration{0, time.Millisecond}
	var tables []*Table
	for _, ipc := range latencies {
		sys, srv, err := expSystem(false, ipc)
		if err != nil {
			return nil, err
		}
		sys.DB.MustExec(`CREATE TABLE docs (id INT PRIMARY KEY, doc DATALINK MODE RDB RECOVERY NO)`)
		t := &Table{
			Caption: fmt.Sprintf("E4. open+read+close, native vs DataLinks(rdb, read token), IPC latency %v", ipc),
			Headers: []string{"file size", "native", "dlfs+token", "overhead", "overhead %", "upcalls/op"},
		}
		for idx, size := range sizes {
			path := fmt.Sprintf("/data/f%d.bin", idx)
			twin := fmt.Sprintf("/data/n%d.bin", idx) // unlinked twin: native baseline
			content := workload.Content(workload.RNG(int64(idx)), size)
			if err := seedAndLink(sys, srv, "docs", idx, path, content); err != nil {
				return nil, err
			}
			if err := seedOwned(srv, twin, content, expUID); err != nil {
				return nil, err
			}
			probes := 60
			if size >= 4<<20 {
				probes = 20
			}
			buf := make([]byte, 128<<10)
			readAllFDs := func(lfs *vfs.LFS, name string, cred fs.Cred) error {
				fd, err := lfs.Open(cred, name, fs.AccessRead)
				if err != nil {
					return err
				}
				off := int64(0)
				for {
					n, err := lfs.ReadAt(fd, off, buf)
					if err != nil {
						lfs.Close(fd)
						return err
					}
					if n == 0 {
						break
					}
					off += int64(n)
				}
				return lfs.Close(fd)
			}
			native, err := Measure(probes, func() error {
				return readAllFDs(srv.NativeLFS, twin, fs.Cred{UID: expUID})
			})
			if err != nil {
				return nil, err
			}
			url, err := readURL(sys.DB, "docs", idx)
			if err != nil {
				return nil, err
			}
			_, name, err := core.SplitURL(url)
			if err != nil {
				return nil, err
			}
			srv.Transport.Reset()
			managed, err := Measure(probes, func() error {
				return readAllFDs(srv.LFS, name, fs.Cred{UID: expUID})
			})
			if err != nil {
				return nil, err
			}
			upcallsPerOp := float64(srv.Transport.Calls()) / float64(probes)
			over := time.Duration(float64(managed.Mean) - float64(native.Mean))
			pct := (float64(managed.Mean) - float64(native.Mean)) / float64(native.Mean)
			t.AddRow(byteSize(size), Dur(native.Mean), Dur(managed.Mean), Dur(over), Pct(pct),
				fmt.Sprintf("%.1f", upcallsPerOp))
		}
		t.Note("fixed per-open cost (token validation + open check + close purge) amortizes as the file grows — the paper's <1%%-at-1MB shape")
		t.Note("absolute ratios differ because the in-memory FS reads at RAM speed; against the paper's 1998 testbed (1MB read ≈ 100ms of CPU+I/O) the same fixed cost is <1%%")
		tables = append(tables, t)
		sys.Close()
	}
	return tables, nil
}

func byteSize(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	default:
		return fmt.Sprintf("%dKB", n>>10)
	}
}

// runE5 measures bare open+close latency and upcall counts per control mode.
func runE5() ([]*Table, error) {
	t := &Table{
		Caption: "E5. open+close response time and upcalls by mode (1000 probes, 4KB file)",
		Headers: []string{"mode", "access", "mean", "p95", "upcalls/op", "notes"},
	}
	type probe struct {
		mode  string
		write bool
		notes string
	}
	probes := []probe{
		{"unlinked", false, "baseline: plain file"},
		{"unlinked", true, "baseline: plain file"},
		{"rff", false, "FS-controlled read"},
		{"rff", true, "FS-controlled write"},
		{"rfb", false, "FS-controlled read"},
		{"rdb", false, "token read"},
		{"rfd", false, "FS-controlled read"},
		{"rfd", true, "update transaction"},
		{"rdd", false, "token read"},
		{"rdd", true, "update transaction"},
	}
	for _, p := range probes {
		sys, srv, err := expSystem(false, 0)
		if err != nil {
			return nil, err
		}
		path := "/data/p.bin"
		if err := seedOwned(srv, path, workload.Content(workload.RNG(9), 4096), expUID); err != nil {
			return nil, err
		}
		url := "dlfs://fs1" + path
		if p.mode != "unlinked" {
			sys.DB.MustExec(fmt.Sprintf(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE %s RECOVERY YES)`, p.mode))
			if err := link(sys.DB, "t", 1, url); err != nil {
				return nil, err
			}
			fn := "DLURLCOMPLETE"
			if p.write {
				fn = "DLURLCOMPLETEWRITE"
			}
			tokenized, err := tokenURL(sys.DB, fn, "t", 1)
			switch {
			case err == nil:
				url = tokenized
			case p.write && p.mode == "rff":
				// rff writes are FS-controlled: no token, bare URL works.
			default:
				sys.Close()
				continue // mode does not support this access (e.g. rfb write)
			}
		}
		sess := sys.NewSession(expUID)
		const n = 1000
		srv.Transport.Reset()
		stats, err := Measure(n, func() error {
			var f *core.File
			var err error
			if p.write {
				f, err = sess.OpenWrite(url)
			} else {
				f, err = sess.OpenRead(url)
			}
			if err != nil {
				return err
			}
			return f.Close()
		})
		if err != nil {
			return nil, fmt.Errorf("E5 %s/%v: %w", p.mode, p.write, err)
		}
		access := "read"
		if p.write {
			access = "write"
		}
		t.AddRow(p.mode, access, Dur(stats.Mean), Dur(stats.P95),
			fmt.Sprintf("%.1f", float64(srv.Transport.Calls())/float64(n)), p.notes)
		sys.Close()
	}
	t.Note("reads of files not under full DB control make 0 upcalls (ownership-check optimization, §4)")
	t.Note("token-path opens cost open (token admitted in the same call) + close = 2 upcalls; rfd writes add the lazy native attempt first")
	t.Note("deviation from §4.1: the paper validates the token at fs_lookup (3 upcalls); this DLFS owns its vnode, so the token rides the open request")
	return []*Table{t}, nil
}
