// Package cico implements the check-in/check-out update discipline the paper
// compares against in §3: the DBMS tracks who has checked out which file;
// the check-out places a lock (a database row) that blocks every other
// check-out of the same file until check-in.
//
// The paper's criticisms are reproduced measurably:
//   - the lock is held from check-out to check-in (application think time
//     included), curtailing concurrency — unlike UIP's open..close window;
//   - each check-out and check-in costs an extra database update;
//   - a misbehaving application can hoard check-outs and starve others.
package cico

import (
	"errors"
	"fmt"
	"time"

	"datalinks/internal/archive"
	"datalinks/internal/datalink"
	"datalinks/internal/fs"
	"datalinks/internal/sqlmini"
)

// Errors.
var (
	ErrCheckedOut = errors.New("cico: file is checked out by another user")
	ErrStale      = errors.New("cico: ticket is no longer valid")
)

// Manager coordinates check-outs through a database table.
type Manager struct {
	db    *sqlmini.DB
	phys  *fs.FS
	arch  *archive.Store
	srv   string
	clock func() time.Time
}

// New creates the manager and its coordination table.
func New(db *sqlmini.DB, phys *fs.FS, arch *archive.Store, server string, clock func() time.Time) (*Manager, error) {
	if clock == nil {
		clock = time.Now
	}
	if _, err := db.Exec(`CREATE TABLE dl_checkout (
		url VARCHAR PRIMARY KEY,
		holder INT NOT NULL,
		since TIMESTAMP NOT NULL
	)`); err != nil {
		return nil, err
	}
	return &Manager{db: db, phys: phys, arch: arch, srv: server, clock: clock}, nil
}

// Ticket represents one granted check-out.
type Ticket struct {
	URL     string
	Holder  fs.UID
	Content []byte // private working copy
	path    string
	valid   bool
	since   time.Time
}

// CheckOut locks the file in the database and hands back a working copy.
// This is one database update (the lock row) plus the file read.
func (m *Manager) CheckOut(user fs.UID, url string) (*Ticket, error) {
	l, err := datalink.Parse(url)
	if err != nil {
		return nil, err
	}
	if _, err := m.db.Exec(`INSERT INTO dl_checkout (url, holder, since) VALUES (?, ?, ?)`,
		sqlmini.Str(url), sqlmini.Int(int64(user)), sqlmini.Time(m.clock())); err != nil {
		return nil, fmt.Errorf("%w: %s", ErrCheckedOut, url)
	}
	content, err := m.phys.ReadFile(l.Path)
	if err != nil {
		// Release the lock we just took.
		_, _ = m.db.Exec(`DELETE FROM dl_checkout WHERE url = ?`, sqlmini.Str(url))
		return nil, err
	}
	return &Ticket{URL: url, Holder: user, Content: content, path: l.Path, valid: true, since: m.clock()}, nil
}

// CheckIn writes the working copy back, archives a version, and releases the
// lock — the second extra database update of the discipline.
func (m *Manager) CheckIn(t *Ticket) error {
	if !t.valid {
		return ErrStale
	}
	if err := m.phys.WriteFile(t.path, t.Content); err != nil {
		return err
	}
	latest, _ := m.arch.Newest(m.srv, t.path) // Version -1 when none
	ver := latest.Version + 1
	if err := m.arch.Put(m.srv, t.path, ver, uint64(m.db.StateID()), t.Content); err != nil {
		return err
	}
	if _, err := m.db.Exec(`DELETE FROM dl_checkout WHERE url = ?`, sqlmini.Str(t.URL)); err != nil {
		return err
	}
	t.valid = false
	return nil
}

// Cancel abandons a check-out without writing anything.
func (m *Manager) Cancel(t *Ticket) error {
	if !t.valid {
		return ErrStale
	}
	if _, err := m.db.Exec(`DELETE FROM dl_checkout WHERE url = ?`, sqlmini.Str(t.URL)); err != nil {
		return err
	}
	t.valid = false
	return nil
}

// Holder reports who currently holds a file, if anyone.
func (m *Manager) Holder(url string) (fs.UID, bool) {
	rows, err := m.db.Query(`SELECT holder FROM dl_checkout WHERE url = ?`, sqlmini.Str(url))
	if err != nil || len(rows.Data) == 0 {
		return 0, false
	}
	return fs.UID(rows.Data[0][0].I), true
}

// OutstandingCheckouts counts live check-outs (hoarding detection).
func (m *Manager) OutstandingCheckouts() int {
	rows, err := m.db.Query(`SELECT COUNT(*) FROM dl_checkout`)
	if err != nil {
		return 0
	}
	return int(rows.Data[0][0].I)
}
