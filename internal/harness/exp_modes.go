package harness

import (
	"fmt"
	"strings"

	"datalinks/internal/core"
	"datalinks/internal/fs"
)

func yn(allowed bool) string {
	if allowed {
		return "allow"
	}
	return "deny"
}

func init() {
	Register(Experiment{
		ID:    "T1",
		Title: "Control modes (Table 1, extended with rfd/rdd)",
		Paper: "Table 1 lists nff/rff/rfb/rdb; §2.4 adds rfd and rdd. Attributes: referential integrity, read control, write control.",
		Run:   runT1,
	})
	Register(Experiment{
		ID:    "F1",
		Title: "Architecture of DataLinks (Figure 1, from the live system)",
		Paper: "DBMS+DataLinks engine on the host; DLFM (main daemon + child agents + upcall daemon) and DLFS (VFS layer) on each file server.",
		Run:   runF1,
	})
	Register(Experiment{
		ID:    "F2",
		Title: "Application view (Figure 2): SQL API and file API over one linked file",
		Paper: "An Employee table with a DATALINK picture column; applications reach the same file through SQL and through the file system API.",
		Run:   runF2,
	})
}

// runT1 exercises every access class against a file linked in each mode and
// prints the observed allow/deny matrix next to the paper's specification.
func runT1() ([]*Table, error) {
	spec := &Table{
		Caption: "T1a. Control mode specification (paper Table 1 + §2.4)",
		Headers: []string{"mode", "ref.integrity", "read ctl", "write ctl"},
	}
	specRows := [][]string{
		{"nff", "no", "FS", "FS"},
		{"rff", "yes", "FS", "FS"},
		{"rfb", "yes", "FS", "blocked"},
		{"rdb", "yes", "DBMS", "blocked"},
		{"rfd", "yes", "FS", "DBMS"},
		{"rdd", "yes", "DBMS", "DBMS"},
	}
	for _, r := range specRows {
		spec.AddRow(r...)
	}

	obs := &Table{
		Caption: "T1b. Observed enforcement per mode (allow/deny)",
		Headers: []string{"mode", "read no-token", "read token", "write no-token", "write token", "remove", "rename"},
	}

	for _, mode := range []string{"nff", "rff", "rfb", "rdb", "rfd", "rdd"} {
		sys, srv, err := expSystem(false, 0)
		if err != nil {
			return nil, err
		}
		path := "/data/doc.bin"
		sys.DB().MustExec(fmt.Sprintf(
			`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE %s RECOVERY YES)`, strings.ToUpper(mode)))
		if err := seedAndLink(sys, srv, "t", 1, path, []byte("content")); err != nil {
			return nil, fmt.Errorf("link %s: %w", mode, err)
		}
		sess := sys.NewSession(expUID)
		bare := "dlfs://fs1" + path

		tryOpen := func(url string, write bool) bool {
			var f *core.File
			var err error
			if write {
				f, err = sess.OpenWrite(url)
			} else {
				f, err = sess.OpenRead(url)
			}
			if err != nil {
				return false
			}
			f.Close()
			return true
		}
		readPlain := tryOpen(bare, false)
		readTok := false
		if url, err := readURL(sys.DB(), "t", 1); err == nil {
			readTok = tryOpen(url, false)
		}
		writePlain := tryOpen(bare, true)
		writeTok := false
		if url, err := writeURL(sys.DB(), "t", 1); err == nil {
			writeTok = tryOpen(url, true)
		}
		removeOK := srv.LFS.Remove(fs.Cred{UID: expUID}, path) == nil
		if removeOK {
			// Recreate for the rename probe.
			if err := srv.SeedFile(path, []byte("content"), expUID); err != nil {
				return nil, err
			}
		}
		renameOK := srv.LFS.Rename(fs.Cred{UID: expUID}, path, "/data/doc2.bin") == nil
		obs.AddRow(mode, yn(readPlain), yn(readTok), yn(writePlain), yn(writeTok), yn(removeOK), yn(renameOK))
		sys.Close()
	}
	obs.Note("write token = DLURLCOMPLETEWRITE; modes without DB write control issue no write tokens")
	obs.Note("nff files are not registered with DLFM: every operation is plain file-system access")
	return []*Table{spec, obs}, nil
}

// runF1 prints the architecture wiring from a live system.
func runF1() ([]*Table, error) {
	sys, srv, err := expSystem(false, 0)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	sys.DB().MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES)`)
	if err := seedAndLink(sys, srv, "t", 1, "/data/a.bin", []byte("x")); err != nil {
		return nil, err
	}

	t := &Table{
		Caption: "F1. Live component inventory (Figure 1 wiring)",
		Headers: []string{"component", "location", "detail"},
	}
	t.AddRow("DBMS (sqlmini)", "host", fmt.Sprintf("%d tables, state id %d", len(sys.DB().TableNames()), sys.DB().StateID()))
	t.AddRow("DataLinks engine", "host", fmt.Sprintf("servers=%v, linked=%v", sys.Engine.ServerNames(), sys.Engine.LinkedFiles()))
	t.AddRow("DLFM main daemon", "file server fs1", fmt.Sprintf("child agents spawned: %d", srv.DLFM.AgentCount()))
	t.AddRow("DLFM repository", "file server fs1", fmt.Sprintf("tables: %v", srv.DLFM.Repo().TableNames()))
	t.AddRow("DLFM upcall daemon", "file server fs1", fmt.Sprintf("upcalls served: %d", srv.Transport.Calls()))
	t.AddRow("DLFS (VFS layer)", "file server fs1", "interposes fs_lookup/fs_open/fs_close/fs_remove/fs_rename")
	t.AddRow("Physical FS", "file server fs1", "in-memory UNIX-like FS (JFS/UFS stand-in)")
	t.AddRow("Archive server", "file server fs1", archiveSummary(srv))
	t.Note("diagram: Application → {db client API → DataLinks engine ↔ DLFM} and {FS API → LFS → DLFS → physical FS}; DLFS ⇢ upcall ⇢ DLFM")
	return []*Table{t}, nil
}

func archiveSummary(srv *core.FileServer) string {
	puts, restores, bytes := srv.Archive.Stats()
	return fmt.Sprintf("puts=%d restores=%d bytes=%d", puts, restores, bytes)
}

// runF2 walks the Figure 2 employee-table example through both APIs.
func runF2() ([]*Table, error) {
	sys, srv, err := expSystem(false, 0)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	if err := srv.SeedFile("/images/john.gif", []byte("GIF89a john"), expUID); err != nil {
		return nil, err
	}
	sys.DB().MustExec(`CREATE TABLE employee (name VARCHAR PRIMARY KEY, dept VARCHAR, picture DATALINK MODE RDB RECOVERY NO)`)
	sys.DB().MustExec(`INSERT INTO employee VALUES ('john', 'research', DLVALUE('dlfs://fs1/images/john.gif'))`)

	t := &Table{
		Caption: "F2. Application view of one linked file (Figure 2)",
		Headers: []string{"step", "API", "result"},
	}
	rows, err := sys.DB().Query(`SELECT name, dept, DLURLPATHONLY(picture) FROM employee`)
	if err != nil {
		return nil, err
	}
	t.AddRow("1. SQL SELECT", "db client API",
		fmt.Sprintf("name=%s dept=%s picture=%s", rows.Data[0][0].S, rows.Data[0][1].S, rows.Data[0][2].S))
	urlRow, err := sys.DB().QueryRow(`SELECT DLURLCOMPLETE(picture) FROM employee WHERE name = 'john'`)
	if err != nil {
		return nil, err
	}
	t.AddRow("2. token fetch", "db client API", truncateCell(urlRow[0].S, 60))
	sess := sys.NewSession(expUID)
	f, err := sess.OpenRead(urlRow[0].S)
	if err != nil {
		return nil, err
	}
	content, _ := f.ReadAll()
	f.Close()
	t.AddRow("3. file open+read", "FS API (through DLFS)", fmt.Sprintf("%d bytes: %q", len(content), content))
	// Same-uid processes are covered by the validated token entry (§4.1);
	// a different user without a token is rejected.
	if f2, err := sess.OpenRead("dlfs://fs1/images/john.gif"); err == nil {
		f2.Close()
		t.AddRow("4. same-uid tokenless open", "FS API (through DLFS)", "allowed via token entry (§4.1 userid semantics)")
	} else {
		t.AddRow("4. same-uid tokenless open", "FS API (through DLFS)", "denied (unexpected): "+firstLine(err))
	}
	other := sys.NewSession(otherUID)
	if _, err := other.OpenRead("dlfs://fs1/images/john.gif"); err != nil {
		t.AddRow("5. other-uid tokenless open", "FS API (through DLFS)", "denied: "+firstLine(err))
	} else {
		t.AddRow("5. other-uid tokenless open", "FS API (through DLFS)", "ALLOWED (unexpected for rdb)")
	}
	if err := srv.LFS.Remove(fs.Cred{UID: expUID}, "/images/john.gif"); err != nil {
		t.AddRow("6. remove attempt", "FS API (through DLFS)", "denied: "+firstLine(err))
	} else {
		t.AddRow("6. remove attempt", "FS API (through DLFS)", "ALLOWED (unexpected)")
	}
	return []*Table{t}, nil
}

func truncateCell(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

func firstLine(err error) string {
	msg := err.Error()
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		msg = msg[:i]
	}
	return truncateCell(msg, 60)
}
