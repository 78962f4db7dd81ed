package harness

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"datalinks/internal/core"
	"datalinks/internal/fs"
	"datalinks/internal/workload"
)

func init() {
	Register(Experiment{
		ID:    "E9",
		Title: "Synchronization of file access with (un)link processing (§4.5)",
		Paper: "unlink is rejected while a Sync entry exists; read-open sync entries only for full-control files; a link can still succeed while the file is open (window of inconsistency) unless the future-work fix is applied.",
		Run:   runE9,
	})
	Register(Experiment{
		ID:    "E10",
		Title: "rfd read anomaly vs rdd serialization (§4.2, §5)",
		Paper: "\"an application can successfully open a file for update while another application has the file open for read\" in rfd; rdd serializes reads and writes at open time, so no torn reads.",
		Run:   runE10,
	})
	Register(Experiment{
		ID:    "E11",
		Title: "Design ablation: ownership-check optimization vs upcall-per-open (§4)",
		Paper: "per-file DataLinks state lives at DLFM (portability), so reads would need an upcall — avoided by examining file ownership; the strict variant pays the upcall on every open.",
		Run:   runE11,
	})
}

// runE9 probes every unlink/link vs open interleaving.
func runE9() ([]*Table, error) {
	t := &Table{
		Caption: "E9. (Un)link vs open interleavings",
		Headers: []string{"scenario", "mode", "outcome", "matches paper"},
	}
	type scenario struct {
		name   string
		mode   string
		strict bool
		run    func(sys *core.System, srv *core.FileServer) (string, bool)
	}
	openRead := func(sys *core.System) (*core.File, error) {
		url, err := readURL(sys.DB, "t", 1)
		if err != nil {
			return nil, err
		}
		return sys.NewSession(expUID).OpenRead(url)
	}
	scenarios := []scenario{
		{
			name: "unlink while open for read", mode: "rdd",
			run: func(sys *core.System, srv *core.FileServer) (string, bool) {
				f, err := openRead(sys)
				if err != nil {
					return "setup failed: " + firstLine(err), false
				}
				defer f.Close()
				_, err = sys.DB.Exec(`DELETE FROM t WHERE id = 1`)
				return outcome(err == nil), err != nil // paper: rejected
			},
		},
		{
			name: "unlink while open for write", mode: "rfd",
			run: func(sys *core.System, srv *core.FileServer) (string, bool) {
				url, err := writeURL(sys.DB, "t", 1)
				if err != nil {
					return "setup failed", false
				}
				f, err := sys.NewSession(expUID).OpenWrite(url)
				if err != nil {
					return "setup failed: " + firstLine(err), false
				}
				defer f.Close()
				_, err = sys.DB.Exec(`DELETE FROM t WHERE id = 1`)
				return outcome(err == nil), err != nil // paper: rejected
			},
		},
		{
			name: "unlink after close", mode: "rdd",
			run: func(sys *core.System, srv *core.FileServer) (string, bool) {
				f, err := openRead(sys)
				if err != nil {
					return "setup failed", false
				}
				f.Close()
				_, err = sys.DB.Exec(`DELETE FROM t WHERE id = 1`)
				return outcome(err == nil), err == nil // paper: allowed
			},
		},
		{
			name: "link while file open (shipped behaviour)", mode: "rdd", strict: false,
			run: func(sys *core.System, srv *core.FileServer) (string, bool) {
				seedOwned(srv, "/d/other.bin", []byte("x"), expUID)
				fd, err := srv.LFS.Open(fs.Cred{UID: expUID}, "/d/other.bin", fs.AccessRead)
				if err != nil {
					return "setup failed", false
				}
				defer srv.LFS.Close(fd)
				err = link(sys.DB, "t", 2, "dlfs://fs1/d/other.bin")
				return outcome(err == nil) + " (window of inconsistency)", err == nil // paper: succeeds
			},
		},
		{
			name: "link while file open (strict extension)", mode: "rdd", strict: true,
			run: func(sys *core.System, srv *core.FileServer) (string, bool) {
				seedOwned(srv, "/d/other.bin", []byte("x"), expUID)
				fd, err := srv.LFS.Open(fs.Cred{UID: expUID}, "/d/other.bin", fs.AccessRead)
				if err != nil {
					return "setup failed", false
				}
				defer srv.LFS.Close(fd)
				err = link(sys.DB, "t", 2, "dlfs://fs1/d/other.bin")
				return outcome(err == nil), err != nil // fix: rejected
			},
		},
	}
	for _, sc := range scenarios {
		sys, srv, err := expSystem(sc.strict, 0)
		if err != nil {
			return nil, err
		}
		sys.DB.MustExec(fmt.Sprintf(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE %s RECOVERY YES)`, sc.mode))
		if err := seedAndLink(sys, srv, "t", 1, "/d/f.bin", []byte("v0")); err != nil {
			return nil, err
		}
		result, matches := sc.run(sys, srv)
		verdict := "PASS"
		if !matches {
			verdict = "FAIL"
		}
		t.AddRow(sc.name, sc.mode, result, verdict)
		sys.Close()
	}
	return []*Table{t}, nil
}

func outcome(allowed bool) string {
	if allowed {
		return "allowed"
	}
	return "rejected"
}

// runE10 races slow readers against a writer and counts torn reads.
func runE10() ([]*Table, error) {
	const (
		fileSize = 64 << 10
		readers  = 2
		rounds   = 20
	)
	t := &Table{
		Caption: fmt.Sprintf("E10. %d slow readers vs 1 writer, %d write rounds, %dKB file", readers, rounds, fileSize>>10),
		Headers: []string{"mode", "reads ok", "reads rejected", "torn reads", "writer busy-retries"},
	}
	for _, mode := range []string{"rfd", "rdd"} {
		sys, srv, err := newSystem(core.ServerConfig{Name: "fs1", OpenWait: 2 * time.Second}, 2*time.Second)
		if err != nil {
			return nil, err
		}
		sys.DB.MustExec(fmt.Sprintf(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE %s RECOVERY YES)`, mode))
		if err := seedAndLink(sys, srv, "t", 1, "/d/f.bin", workload.UniformContent(fileSize, 0)); err != nil {
			return nil, err
		}
		var readsOK, readsRejected, torn, writerBusy int64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		// Readers: open, read slowly in chunks, close, repeat.
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				sess := sys.NewSession(fs.UID(600 + r))
				for {
					select {
					case <-stop:
						return
					default:
					}
					url := "dlfs://fs1/d/f.bin"
					if mode == "rdd" {
						var err error
						if url, err = readURL(sys.DB, "t", 1); err != nil {
							continue
						}
					}
					f, err := sess.OpenRead(url)
					if err != nil {
						atomic.AddInt64(&readsRejected, 1)
						time.Sleep(time.Millisecond)
						continue
					}
					var content []byte
					buf := make([]byte, 16<<10)
					for {
						n, err := f.Read(buf)
						if err != nil || n == 0 {
							break
						}
						content = append(content, buf[:n]...)
						time.Sleep(100 * time.Microsecond) // slow reader
					}
					f.Close()
					if clean, _ := workload.TornCheck(content); !clean {
						atomic.AddInt64(&torn, 1)
					}
					atomic.AddInt64(&readsOK, 1)
					// Pause between reads so writers get open windows.
					time.Sleep(5 * time.Millisecond)
				}
			}(r)
		}
		// Writer: rewrite the whole file with a new version fill per round.
		sess := sys.NewSession(expUID)
		for v := 1; v <= rounds; v++ {
			for {
				url, err := writeURL(sys.DB, "t", 1)
				if err != nil {
					atomic.AddInt64(&writerBusy, 1)
					continue
				}
				f, err := sess.OpenWrite(url)
				if err != nil {
					atomic.AddInt64(&writerBusy, 1)
					time.Sleep(time.Millisecond)
					continue
				}
				f.WriteAt(0, workload.UniformContent(fileSize, v))
				if err := f.Close(); err != nil {
					atomic.AddInt64(&writerBusy, 1)
					continue
				}
				break
			}
			// Think time between updates: the paper's mostly-read workload.
			time.Sleep(2 * time.Millisecond)
		}
		close(stop)
		wg.Wait()
		srv.DLFM.WaitArchives()
		t.AddRow(mode,
			fmt.Sprintf("%d", readsOK),
			fmt.Sprintf("%d", readsRejected),
			fmt.Sprintf("%d", torn),
			fmt.Sprintf("%d", writerBusy))
		sys.Close()
	}
	t.Note("rfd: a reader that opened before the takeover keeps reading while the writer scribbles -> torn reads > 0; new opens during the window are rejected")
	t.Note("rdd: opens serialize against the writer at DLFM -> torn reads = 0, at the cost of waiting/rejected opens")
	return []*Table{t}, nil
}

// runE11 sweeps injected IPC latency over both read-open designs.
func runE11() ([]*Table, error) {
	t := &Table{
		Caption: "E11. Read-open cost: ownership check (0 upcalls) vs strict upcall-per-open, by IPC latency (rfd file, 500 opens)",
		Headers: []string{"IPC latency", "design", "mean open+close", "upcalls/op"},
	}
	for _, ipc := range []time.Duration{0, 500 * time.Microsecond, 2 * time.Millisecond} {
		for _, strict := range []bool{false, true} {
			sys, srv, err := expSystem(strict, ipc)
			if err != nil {
				return nil, err
			}
			sys.DB.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY NO)`)
			if err := seedAndLink(sys, srv, "t", 1, "/d/f.bin", workload.Content(workload.RNG(2), 4096)); err != nil {
				return nil, err
			}
			sess := sys.NewSession(expUID)
			const n = 500
			srv.Transport.Reset()
			stats, err := Measure(n, func() error {
				f, err := sess.OpenRead("dlfs://fs1/d/f.bin")
				if err != nil {
					return err
				}
				return f.Close()
			})
			if err != nil {
				return nil, err
			}
			design := "ownership check (paper)"
			if strict {
				design = "upcall per open (strict)"
			}
			t.AddRow(fmt.Sprintf("%v", ipc), design, Dur(stats.Mean),
				fmt.Sprintf("%.1f", float64(srv.Transport.Calls())/float64(n)))
			sys.Close()
		}
	}
	t.Note("the gap between the designs is exactly the upcall count x IPC cost — the trade the paper's design optimizes, and what the strict fix of §4.5 would pay")
	return []*Table{t}, nil
}
