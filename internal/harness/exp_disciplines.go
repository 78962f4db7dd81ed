package harness

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"datalinks/internal/archive"
	"datalinks/internal/cau"
	"datalinks/internal/cico"
	"datalinks/internal/fs"
	"datalinks/internal/sqlmini"
	"datalinks/internal/wal"
	"datalinks/internal/workload"
)

func init() {
	Register(Experiment{
		ID:    "E6",
		Title: "Update disciplines under contention: UIP vs CICO vs CAU (§3)",
		Paper: "§3 argues: CICO's long locks curtail concurrency and cost two extra DB updates; CAU avoids locks but loses updates unless merged carefully; UIP holds an implicit lock only between open and close.",
		Run:   runE6,
	})
	Register(Experiment{
		ID:    "E12",
		Title: "Transaction-boundary ablation: per-write vs open..close (§3.1)",
		Paper: "§3.1 rejects making every fs_readwrite a transaction: useless intermediate versions, per-call upcalls, and heavy archiver load. The open..close boundary is the practical choice.",
		Run:   runE12,
	})
}

// e6Result collects one discipline's outcome.
type e6Result struct {
	name       string
	updates    int64
	busyErrors int64
	lost       int64
	merges     int64
	lockHold   time.Duration
	elapsed    time.Duration
}

// runE6 runs W writers over F files with think time, once per discipline.
func runE6() ([]*Table, error) {
	const (
		writers   = 8
		files     = 4
		updates   = 25 // per writer
		fileSize  = 8 << 10
		thinkTime = 200 * time.Microsecond // "application work" inside the critical window
	)
	var results []e6Result

	// --- UIP: update in place through DataLinks (rfd) ---
	{
		sys, srv, err := expSystem(false, 0)
		if err != nil {
			return nil, err
		}
		sys.DB().MustExec(`CREATE TABLE docs (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES, doc_size INT)`)
		rng := workload.RNG(6)
		pop, err := workload.Seed(srv.Phys, "/w", files, fileSize, expUID, rng)
		if err != nil {
			return nil, err
		}
		for i := 0; i < files; i++ {
			if err := link(sys.DB(), "docs", i, pop.URL("fs1", i)); err != nil {
				return nil, err
			}
		}
		var done, busy int64
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sess := sys.NewSession(expUID)
				z := workload.NewZipf(workload.RNG(int64(100+w)), files)
				for u := 0; u < updates; u++ {
					i := z.Next()
					url, err := writeURL(sys.DB(), "docs", i)
					if err != nil {
						atomic.AddInt64(&busy, 1)
						continue
					}
					f, err := sess.OpenWrite(url)
					if err != nil {
						atomic.AddInt64(&busy, 1)
						continue
					}
					time.Sleep(thinkTime)
					f.WriteAt(0, workload.UniformContent(fileSize, w*1000+u))
					if err := f.Close(); err != nil {
						atomic.AddInt64(&busy, 1)
						continue
					}
					atomic.AddInt64(&done, 1)
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		results = append(results, e6Result{name: "UIP (rfd)", updates: done, busyErrors: busy, elapsed: elapsed})
		sys.Close()
	}

	// --- CICO: check-out locks the file for the whole edit ---
	{
		logDir, err := os.MkdirTemp("", "datalinks-host-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(logDir)
		lg, err := wal.Open(wal.Config{Dir: logDir})
		if err != nil {
			return nil, err
		}
		defer lg.Close()
		db := sqlmini.NewDB(sqlmini.Options{Log: lg, LockTimeout: 2 * time.Second})
		phys, arch, pop, err := plainFileSetup(files, fileSize)
		if err != nil {
			return nil, err
		}
		defer arch.Close()
		mgr, err := cico.New(db, phys, arch, "fs1", nil)
		if err != nil {
			return nil, err
		}
		var done, busy int64
		var lockHold int64
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				z := workload.NewZipf(workload.RNG(int64(200+w)), files)
				for u := 0; u < updates; u++ {
					i := z.Next()
					// The check-out is a database lock: contenders must retry
					// until the holder checks in (the paper's concurrency
					// criticism).
					var ticket *cico.Ticket
					var err error
					t0 := time.Now()
					for {
						ticket, err = mgr.CheckOut(fs.UID(expUID), pop.URL("fs1", i))
						if err == nil {
							break
						}
						atomic.AddInt64(&busy, 1)
						time.Sleep(100 * time.Microsecond)
					}
					time.Sleep(thinkTime)
					ticket.Content = workload.UniformContent(fileSize, w*1000+u)
					if err := mgr.CheckIn(ticket); err != nil {
						atomic.AddInt64(&busy, 1)
						continue
					}
					atomic.AddInt64(&lockHold, int64(time.Since(t0)))
					atomic.AddInt64(&done, 1)
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		res := e6Result{name: "CICO", updates: done, busyErrors: busy, elapsed: elapsed}
		if done > 0 {
			res.lockHold = time.Duration(lockHold / done)
		}
		results = append(results, res)
	}

	// --- CAU blind: private copies, last writer wins ---
	for _, safe := range []bool{false, true} {
		phys, arch, pop, err := plainFileSetup(files, fileSize)
		if err != nil {
			return nil, err
		}
		defer arch.Close()
		mgr := cau.New(phys, arch, "fs1", nil)
		var done, busy int64
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				z := workload.NewZipf(workload.RNG(int64(300+w)), files)
				for u := 0; u < updates; u++ {
					i := z.Next()
					wc, err := mgr.Copy(pop.URL("fs1", i))
					if err != nil {
						atomic.AddInt64(&busy, 1)
						continue
					}
					time.Sleep(thinkTime)
					wc.Content = workload.UniformContent(fileSize, w*1000+u)
					if safe {
						err = mgr.CheckInSafe(wc, func(base, mine, theirs []byte) ([]byte, error) {
							// Whole-file edits: prefer mine, a trivial merge.
							if bytes.Equal(base, theirs) {
								return mine, nil
							}
							return mine, nil
						})
					} else {
						err = mgr.CheckInBlind(wc)
					}
					if err != nil {
						atomic.AddInt64(&busy, 1)
						continue
					}
					atomic.AddInt64(&done, 1)
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		_, lost, merges, _ := mgr.Stats()
		name := "CAU blind"
		if safe {
			name = "CAU merge"
		}
		results = append(results, e6Result{
			name: name, updates: done, busyErrors: busy, lost: lost, merges: merges, elapsed: elapsed,
		})
	}

	t := &Table{
		Caption: fmt.Sprintf("E6. %d writers x %d updates over %d files (zipf), %v think time",
			writers, updates, files, thinkTime),
		Headers: []string{"discipline", "committed", "busy/conflict", "lost updates", "merges", "mean lock hold", "throughput"},
	}
	for _, r := range results {
		hold := "-"
		if r.lockHold > 0 {
			hold = Dur(r.lockHold)
		}
		t.AddRow(r.name,
			fmt.Sprintf("%d", r.updates),
			fmt.Sprintf("%d", r.busyErrors),
			fmt.Sprintf("%d", r.lost),
			fmt.Sprintf("%d", r.merges),
			hold,
			fmt.Sprintf("%.0f upd/s", float64(r.updates)/r.elapsed.Seconds()))
	}
	t.Note("UIP's implicit lock spans only open..close; CICO's explicit lock spans the whole edit; CAU never blocks but the blind variant loses updates")
	return []*Table{t}, nil
}

// plainFileSetup seeds files outside DataLinks for the baseline disciplines.
// The caller closes the archive.
func plainFileSetup(files, size int) (*fs.FS, *archive.Store, *workload.Population, error) {
	phys := fs.New()
	pop, err := workload.Seed(phys, "/w", files, size, expUID, workload.RNG(77))
	if err != nil {
		return nil, nil, nil, err
	}
	arch, err := archive.NewTiered(0, nil, archive.TierConfig{})
	if err != nil {
		return nil, nil, nil, err
	}
	return phys, arch, pop, nil
}

// runE12 compares the open..close boundary against per-write transactions.
func runE12() ([]*Table, error) {
	writesPerUpdate := []int{1, 4, 16, 64}
	const chunk = 4 << 10

	t := &Table{
		Caption: "E12. W writes to one file: one open..close transaction vs one transaction per write",
		Headers: []string{"W", "boundary", "elapsed", "upcalls", "versions created", "archive jobs"},
	}
	for _, w := range writesPerUpdate {
		for _, perWrite := range []bool{false, true} {
			sys, srv, err := expSystem(false, 0)
			if err != nil {
				return nil, err
			}
			sys.DB().MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES)`)
			if err := seedAndLink(sys, srv, "t", 1, "/d/f.bin", workload.Content(workload.RNG(1), chunk)); err != nil {
				return nil, err
			}
			sess := sys.NewSession(expUID)
			srv.Transport.Reset()
			start := time.Now()
			if perWrite {
				// §3.1's rejected design: every write is its own transaction
				// (modelled as open-write-close per write, which is exactly
				// what per-fs_readwrite boundaries would produce).
				for i := 0; i < w; i++ {
					if err := commitEdit(sys.DB(), sess.OpenWrite, "t", 1, int64(i), workload.UniformContent(1, i)); err != nil {
						return nil, err
					}
				}
			} else {
				url, err := writeURL(sys.DB(), "t", 1)
				if err != nil {
					return nil, err
				}
				f, err := sess.OpenWrite(url)
				if err != nil {
					return nil, err
				}
				for i := 0; i < w; i++ {
					f.WriteAt(int64(i), workload.UniformContent(1, i))
				}
				if err := f.Close(); err != nil {
					return nil, err
				}
			}
			elapsed := time.Since(start)
			versions := len(srv.Archive.Versions("fs1", "/d/f.bin")) - 1 // minus v0
			boundary := "open..close"
			if perWrite {
				boundary = "per-write"
			}
			t.AddRow(fmt.Sprintf("%d", w), boundary, Dur(elapsed),
				fmt.Sprintf("%d", srv.Transport.Calls()),
				fmt.Sprintf("%d", versions),
				fmt.Sprintf("%d", versions))
			sys.Close()
		}
	}
	t.Note("per-write boundaries create W recoverable versions and W x the upcall/archive traffic for the same final content — §3.1's argument, quantified")
	return []*Table{t}, nil
}
