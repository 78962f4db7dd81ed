package harness

import (
	"bytes"
	"fmt"
	"time"

	"datalinks/internal/sqlmini"
	"datalinks/internal/workload"
)

func init() {
	Register(Experiment{
		ID:    "E7",
		Title: "Update atomicity across crashes (§4.2)",
		Paper: "\"either all changes to a file between open and close complete successfully or none of the changes survive the failure\"; the last committed version is restored from the archive, the in-flight version moved to a temporary directory.",
		Run:   runE7,
	})
	Register(Experiment{
		ID:    "E8",
		Title: "Coordinated point-in-time restore (§4.4)",
		Paper: "\"each new version is associated with a database state identifier... when database is restored to a previous point in time, the corresponding files are also restored from the archive\".",
		Run:   runE8,
	})
}

// runE7 drives an update through every crash point and verifies atomicity,
// then measures recovery time as linked files scale.
func runE7() ([]*Table, error) {
	atomicity := &Table{
		Caption: "E7a. Crash-point sweep: file content after recovery",
		Headers: []string{"crash point", "expected content", "observed", "verdict", "quarantined"},
	}
	type crashPoint struct {
		name     string
		expected string // which version should survive
	}
	points := []crashPoint{
		{"before any write (open only)", "v0"},
		{"mid-update (half written)", "v0"},
		{"fully written, before close", "v0"},
		{"after close commit", "v1"},
	}
	for _, cp := range points {
		sys, srv, err := expSystem(false, 0)
		if err != nil {
			return nil, err
		}
		sys.DB.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES)`)
		if err := seedAndLink(sys, srv, "t", 1, "/d/f.bin", []byte("v0-content")); err != nil {
			return nil, err
		}
		sess := sys.NewSession(expUID)
		url, err := writeURL(sys.DB, "t", 1)
		if err != nil {
			return nil, err
		}
		f, err := sess.OpenWrite(url)
		if err != nil {
			return nil, err
		}
		switch cp.name {
		case "before any write (open only)":
		case "mid-update (half written)":
			f.WriteAt(0, []byte("v1-half"))
		case "fully written, before close":
			f.WriteAll([]byte("v1-content"))
		case "after close commit":
			f.WriteAll([]byte("v1-content"))
			if err := f.Close(); err != nil {
				return nil, err
			}
			srv.DLFM.WaitArchives()
		}
		if _, err := sys.CrashAndRecoverServer("fs1"); err != nil {
			return nil, err
		}
		newSrv, _ := sys.Server("fs1")
		data, _ := newSrv.Phys.ReadFile("/d/f.bin")
		want := "v0-content"
		if cp.expected == "v1" {
			want = "v1-content"
		}
		verdict := "PASS"
		if !bytes.Equal(data, []byte(want)) {
			verdict = "FAIL"
		}
		qnames, _ := newSrv.Phys.ReadDir("/lost+found")
		atomicity.AddRow(cp.name, cp.expected, truncateCell(string(data), 14), verdict,
			fmt.Sprintf("%d", len(qnames)))
		sys.Close()
	}

	// Recovery time as the number of in-flight updates at crash grows.
	timing := &Table{
		Caption: "E7b. Recovery time vs in-flight updates at crash (64KB files)",
		Headers: []string{"linked files", "in-flight at crash", "recovery time", "files restored"},
	}
	for _, n := range []int{4, 16, 64} {
		sys, srv, err := expSystem(false, 0)
		if err != nil {
			return nil, err
		}
		pop, err := workload.Seed(srv.Phys, "/d", n, 64<<10, expUID, workload.RNG(int64(n)))
		if err != nil {
			return nil, err
		}
		sys.DB.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES)`)
		for i := 0; i < n; i++ {
			if err := link(sys.DB, "t", i, pop.URL("fs1", i)); err != nil {
				return nil, err
			}
		}
		// Open half the files for update and scribble.
		sess := sys.NewSession(expUID)
		inflight := n / 2
		for i := 0; i < inflight; i++ {
			url, err := writeURL(sys.DB, "t", i)
			if err != nil {
				return nil, err
			}
			f, err := sess.OpenWrite(url)
			if err != nil {
				return nil, err
			}
			f.WriteAt(0, []byte("scribble"))
		}
		start := time.Now()
		rep, err := sys.CrashAndRecoverServer("fs1")
		if err != nil {
			return nil, err
		}
		timing.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", inflight),
			Dur(time.Since(start)), fmt.Sprintf("%d", len(rep.RestoredFiles)))
		sys.Close()
	}
	return []*Table{atomicity, timing}, nil
}

// runE8 commits a chain of versions, capturing state ids, then restores to
// each and verifies database and file agree.
func runE8() ([]*Table, error) {
	const versions = 5
	sys, srv, err := expSystem(false, 0)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	if err := seedOwned(srv, "/d/f.bin", workload.UniformContent(1024, 0), expUID); err != nil {
		return nil, err
	}
	sys.DB.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, note VARCHAR, doc DATALINK MODE RDD RECOVERY YES, doc_size INT)`)
	if _, err := sys.DB.Exec(`INSERT INTO t (id, note, doc) VALUES (1, 'v0', DLVALUE('dlfs://fs1/d/f.bin'))`); err != nil {
		return nil, err
	}
	sess := sys.NewSession(expUID)
	type snap struct {
		state uint64
		note  string
		fill  byte
		size  int
	}
	var snaps []snap
	snaps = append(snaps, snap{state: sys.Engine.StateID(), note: "v0", fill: 'A', size: 1024})
	for v := 1; v <= versions; v++ {
		size := 1024 + v*100 // each version longer than the last: writing at 0 replaces the whole file
		if err := commitEdit(sys.DB, sess.OpenWrite, "t", 1, 0, workload.UniformContent(size, v)); err != nil {
			return nil, err
		}
		srv.DLFM.WaitArchives()
		note := fmt.Sprintf("v%d", v)
		if _, err := sys.DB.Exec(`UPDATE t SET note = ? WHERE id = 1`, sqlmini.Str(note)); err != nil {
			return nil, err
		}
		snaps = append(snaps, snap{state: sys.Engine.StateID(), note: note, fill: byte('A' + v), size: size})
	}

	t := &Table{
		Caption: "E8. Restore to each captured state id: database note vs file content",
		Headers: []string{"restore to state", "db note", "file fill", "file size", "db/file agree", "restore time"},
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		s := snaps[i]
		start := time.Now()
		if err := sys.Engine.RestoreToState(s.state); err != nil {
			return nil, fmt.Errorf("restore to %d: %w", s.state, err)
		}
		elapsed := time.Since(start)
		row, err := sys.Engine.DB().QueryRow(`SELECT note FROM t WHERE id = 1`)
		if err != nil {
			return nil, err
		}
		data, _ := srv.Phys.ReadFile("/d/f.bin")
		clean, fill := workload.TornCheck(data)
		agree := "PASS"
		if !clean || fill != s.fill || len(data) != s.size || row[0].S != s.note {
			agree = "FAIL"
		}
		t.AddRow(fmt.Sprintf("%d", s.state), row[0].S, string(fill),
			fmt.Sprintf("%d", len(data)), agree, Dur(elapsed))
	}
	t.Note("restores run newest-to-oldest against the same live system; each restore discards the newer versions (as a real point-in-time restore would)")
	return []*Table{t}, nil
}
