package harness

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"datalinks/internal/archive"
	"datalinks/internal/core"
	"datalinks/internal/fs"
	"datalinks/internal/sqlmini"
	"datalinks/internal/workload"
)

// The fixture: every experiment measures the same unit of work — link a
// file, fetch a write token, open / write / close = commit, read the history
// back — so that unit is built here, once, as plain functions. An experiment
// file holds what is particular to it: its config, its traffic shape, its
// verdicts.

const (
	expUID   fs.UID = 500
	otherUID fs.UID = 501
)

// newSystem builds a one-server system from sc and returns the server's stack
// with it.
func newSystem(sc core.ServerConfig, lockTimeout time.Duration) (*core.System, *core.FileServer, error) {
	sys, err := core.NewSystem(core.Config{Servers: []core.ServerConfig{sc}, LockTimeout: lockTimeout})
	if err != nil {
		return nil, nil, err
	}
	srv, err := sys.Server(sc.Name)
	if err != nil {
		sys.Close()
		return nil, nil, err
	}
	return sys, srv, nil
}

// expSystem is the paper experiments' standard server: short waits, so a
// probe that must be refused is refused quickly.
func expSystem(strict bool, upcallLatency time.Duration) (*core.System, *core.FileServer, error) {
	return newSystem(core.ServerConfig{
		Name:          "fs1",
		Strict:        strict,
		UpcallLatency: upcallLatency,
		OpenWait:      150 * time.Millisecond,
	}, 500*time.Millisecond)
}

// link makes url the doc of row id in table — the INSERT whose DLVALUE runs
// the link sub-transaction at the owning DLFM. Every experiment table keys
// its rows by an INT id and names its DATALINK column doc.
func link(db *sqlmini.DB, table string, id int, url string) error {
	_, err := db.Exec(fmt.Sprintf(`INSERT INTO %s (id, doc) VALUES (%d, DLVALUE('%s'))`, table, id, url))
	return err
}

// seedAndLink creates path on srv holding content and links it as row id.
func seedAndLink(sys *core.System, srv *core.FileServer, table string, id int, path string, content []byte) error {
	if err := srv.SeedFile(path, content, expUID); err != nil {
		return err
	}
	return link(sys.DB(), table, id, "dlfs://"+srv.Name+path)
}

// seedAndLinkCluster is seedAndLink on the member the ring places path on,
// under the cluster's one authority.
func seedAndLinkCluster(c *core.Cluster, table string, id int, path string, content []byte) error {
	if err := c.SeedFile(path, content, expUID); err != nil {
		return err
	}
	return link(c.DB(), table, id, c.URL(path))
}

// tokenURL selects fn(doc) — DLURLCOMPLETE or DLURLCOMPLETEWRITE — for row id:
// the tokenized URL an application opens the file with.
func tokenURL(db *sqlmini.DB, fn, table string, id int) (string, error) {
	row, err := db.QueryRow(fmt.Sprintf(`SELECT %s(doc) FROM %s WHERE id = %d`, fn, table, id))
	if err != nil {
		return "", err
	}
	return row[0].S, nil
}

// readURL fetches a read-token URL for row id.
func readURL(db *sqlmini.DB, table string, id int) (string, error) {
	return tokenURL(db, "DLURLCOMPLETE", table, id)
}

// writeURL fetches a write-token URL for row id; each one admits one update
// transaction.
func writeURL(db *sqlmini.DB, table string, id int) (string, error) {
	return tokenURL(db, "DLURLCOMPLETEWRITE", table, id)
}

// commitEdit runs one in-place update transaction on row id: fetch a write
// token, open = begin, WriteAt, close = commit. openWrite is a session's
// OpenWrite (a System session or a Cluster one). A failed write aborts the
// update so the file does not stay open for update behind the error.
func commitEdit(db *sqlmini.DB, openWrite func(string) (*core.File, error), table string, id int, off int64, data []byte) error {
	url, err := writeURL(db, table, id)
	if err != nil {
		return err
	}
	f, err := openWrite(url)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(off, data); err != nil {
		_ = f.Abort() // the write error is the one to report
		return err
	}
	return f.Close()
}

// readWhole is the read-side unit: open on a (read-token) URL, read to EOF,
// close. openRead is a session's OpenRead.
func readWhole(openRead func(string) (*core.File, error), url string) error {
	f, err := openRead(url)
	if err != nil {
		return err
	}
	if _, err := f.ReadAll(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// workDir returns dir, or a fresh private temp directory when dir is empty,
// and the cleanup to defer (which removes only what workDir created).
func workDir(dir, pattern string) (string, func(), error) {
	if dir != "" {
		return dir, func() {}, nil
	}
	tmp, err := os.MkdirTemp("", pattern)
	if err != nil {
		return "", nil, err
	}
	return tmp, func() { os.RemoveAll(tmp) }, nil
}

// editOffset places version v's edit of file i: successive edits land on
// different parts of the file, and the placement is a pure function of its
// arguments.
func editOffset(i, v int, fileSize, editSize int64) int64 {
	return (int64(v*31+i*17) * editSize) % (fileSize - editSize + 1)
}

// genHistory computes a deterministic version history: expected[i][v] is the
// exact content of file i at version v, where v0 is seeded random bytes and
// each later version overwrites editSize bytes at editOffset(i, v) with
// fresh seeded bytes. It is a pure function of its arguments, so two
// processes — E18's churn run and its verify-only run on the same
// directory — derive the same truth with nothing carried between them but
// the durable state under test. The edit a churn applies for version v
// is expected[i][v][off:off+editSize].
func genHistory(seed int64, files int, fileSize, editSize int64, versions int) [][][]byte {
	expected := make([][][]byte, files)
	for i := range expected {
		model := workload.Content(workload.RNG(seed+int64(i)), int(fileSize))
		expected[i] = append(expected[i], bytes.Clone(model))
		for v := 1; v <= versions; v++ {
			edit := workload.Content(workload.RNG(seed+500+int64(100*i+v)), int(editSize))
			copy(model[editOffset(i, v, fileSize, editSize):], edit)
			expected[i] = append(expected[i], bytes.Clone(model))
		}
	}
	return expected
}

// verifyHistory checks that store serves exactly expected for path: one
// archived version per expected one, numbered from 0, each materializing
// byte-identical; the newest is Latest; and the state id archived with the
// middle version resolves, as-of, back to exactly that version's bytes. It
// returns the number of versions verified.
func verifyHistory(store *archive.Store, server, path string, expected [][]byte) (int, error) {
	vers := store.Versions(server, path)
	if len(vers) != len(expected) {
		return 0, fmt.Errorf("%s has %d versions, want %d", path, len(vers), len(expected))
	}
	for v, e := range vers {
		if e.Version != archive.Version(v) {
			return 0, fmt.Errorf("%s slot %d holds version %d", path, v, e.Version)
		}
		if err := sameBytes(e, expected[v]); err != nil {
			return 0, err
		}
	}
	last := archive.Version(len(expected) - 1)
	if latest, err := store.Latest(server, path); err != nil || latest.Version != last {
		return 0, fmt.Errorf("latest of %s is v%d, want v%d (%v)", path, latest.Version, last, err)
	}
	mid := vers[len(vers)/2]
	pit, err := store.AsOf(server, path, mid.StateID)
	if err != nil || pit.Version != mid.Version {
		return 0, fmt.Errorf("as-of %s at state %d returned v%d, want v%d (%v)", path, mid.StateID, pit.Version, mid.Version, err)
	}
	if err := sameBytes(pit, expected[len(vers)/2]); err != nil {
		return 0, fmt.Errorf("as-of state %d: %w", mid.StateID, err)
	}
	return len(vers), nil
}

// sameBytes materializes e and compares it with want. It goes through
// Snapshot, not Content: a version whose blob is missing is an error here,
// not an empty file.
func sameBytes(e archive.Entry, want []byte) error {
	snap, err := e.Snapshot()
	if err != nil {
		return fmt.Errorf("%s v%d: %w", e.Path, e.Version, err)
	}
	defer snap.Release()
	if !bytes.Equal(snap.Bytes(), want) {
		return fmt.Errorf("%s v%d diverged from the bytes committed", e.Path, e.Version)
	}
	return nil
}

// versionSum is one archived version as a history comparison sees it.
type versionSum struct {
	version archive.Version
	stateID uint64
	size    int
	sum     [sha256.Size]byte
}

// history is a path's whole archived history as one member holds it.
type history []versionSum

// historyDigest reads the whole archived history of path as member m holds
// it — (version, state id, size, sha256) of every version. Two members, or
// one member before and after a migration, hold the same history iff
// sameBytes says so. A version that does not materialize is an error naming
// the member, path and version; summing it as empty would let a manifest
// without its blob pass for a short file.
func historyDigest(m *core.FileServer, authority, path string) (history, error) {
	var h history
	for _, e := range m.Archive.Versions(authority, path) {
		snap, err := e.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("%s: %s v%d: %w", m.Name, path, e.Version, err)
		}
		content := snap.Bytes()
		snap.Release()
		h = append(h, versionSum{version: e.Version, stateID: e.StateID, size: len(content), sum: sha256.Sum256(content)})
	}
	return h, nil
}

// sameBytes reports whether two versions have the same number and bytes.
// State ids are not compared — dump prints them, for a reader hunting where
// two copies parted.
func (v versionSum) sameBytes(o versionSum) bool {
	return v.version == o.version && v.size == o.size && v.sum == o.sum
}

// sameBytes reports whether two histories hold the same versions with the
// same bytes.
func (h history) sameBytes(o history) bool {
	if len(h) != len(o) {
		return false
	}
	for i := range h {
		if !h[i].sameBytes(o[i]) {
			return false
		}
	}
	return true
}

// dump prints h and o side by side after a newline, one version per line and
// aligned by version number, as "v<version> state <id> size <n> sha256 <first
// 8 bytes>"; a version only one side holds shows "-" on the other, and a line
// whose two sides differ is starred. A run of more than three lines of one
// kind (alike, differing, or one side only) keeps its first and last line
// around a "… n more" line, so a long history stays readable.
func dump(labelH string, h history, labelO string, o history) string {
	type row struct {
		kind        int // 0 alike, 1 differ, 2 h only, 3 o only
		left, right string
	}
	line := func(v versionSum) string {
		return fmt.Sprintf("v%d state %d size %d sha256 %x", v.version, v.stateID, v.size, v.sum[:8])
	}
	var rows []row
	for i, j := 0, 0; i < len(h) || j < len(o); {
		switch {
		case j == len(o) || i < len(h) && h[i].version < o[j].version:
			rows = append(rows, row{2, line(h[i]), "-"})
			i++
		case i == len(h) || o[j].version < h[i].version:
			rows = append(rows, row{3, "-", line(o[j])})
			j++
		default:
			r := row{0, line(h[i]), line(o[j])}
			if !h[i].sameBytes(o[j]) {
				r.kind = 1
			}
			rows = append(rows, r)
			i, j = i+1, j+1
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "\n  %-56s | %s", labelH, labelO)
	for start := 0; start < len(rows); {
		end := start + 1
		for end < len(rows) && rows[end].kind == rows[start].kind {
			end++
		}
		for k, n := start, end-start; k < end; k++ {
			if n > 3 && k == start+1 {
				fmt.Fprintf(&b, "\n  … %d more", n-2)
				k = end - 2
				continue
			}
			mark := "*"
			if rows[k].kind == 0 {
				mark = " "
			}
			fmt.Fprintf(&b, "\n%s %-56s | %s", mark, rows[k].left, rows[k].right)
		}
		start = end
	}
	return b.String()
}

// firstError keeps the first error any of a round's goroutines reports.
type firstError struct {
	mu  sync.Mutex
	err error
}

func (f *firstError) set(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *firstError) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// stopAfter returns a func that reports whether d has elapsed since the
// call — the end of a time-bounded round.
func stopAfter(d time.Duration) func() bool {
	end := time.Now().Add(d)
	return func() bool { return !time.Now().Before(end) }
}

// mib formats a byte count in MiB for table cells.
func mib(b int64) string { return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20)) }
