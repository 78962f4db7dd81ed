package datalinks

import (
	"datalinks/internal/cau"
	"datalinks/internal/cico"
	"datalinks/internal/fs"
)

func intToFsUID(uid int32) fs.UID { return fs.UID(uid) }

// The paper's §3 compares update-in-place against two older disciplines.
// Both are implemented and exposed here so applications (and the E6
// experiment) can run them against the same file servers.

// CheckOutManager is the check-in/check-out discipline: the database locks
// a file at check-out and releases it at check-in. The lock spans the whole
// edit, which is exactly the concurrency cost §3 criticizes.
type CheckOutManager struct {
	inner *cico.Manager
}

// CheckOutTicket represents one granted check-out with a private working
// copy in Content.
type CheckOutTicket struct {
	inner *cico.Ticket
}

// Content returns the working copy for editing.
func (t *CheckOutTicket) Content() []byte { return t.inner.Content }

// SetContent replaces the working copy.
func (t *CheckOutTicket) SetContent(p []byte) { t.inner.Content = p }

// NewCheckOutManager creates a check-out coordinator over one file server,
// storing its lock table in the system's host database.
func (s *System) NewCheckOutManager(server string) (*CheckOutManager, error) {
	srv, err := s.core.Server(server)
	if err != nil {
		return nil, err
	}
	m, err := cico.New(s.core.DB(), srv.Phys, srv.Archive, server, nil)
	if err != nil {
		return nil, err
	}
	return &CheckOutManager{inner: m}, nil
}

// CheckOut locks the file in the database and returns a working copy.
func (m *CheckOutManager) CheckOut(uid int32, url string) (*CheckOutTicket, error) {
	t, err := m.inner.CheckOut(intToFsUID(uid), url)
	if err != nil {
		return nil, err
	}
	return &CheckOutTicket{inner: t}, nil
}

// CheckIn writes the working copy back and releases the lock.
func (m *CheckOutManager) CheckIn(t *CheckOutTicket) error { return m.inner.CheckIn(t.inner) }

// Cancel abandons a check-out without writing.
func (m *CheckOutManager) Cancel(t *CheckOutTicket) error { return m.inner.Cancel(t.inner) }

// Outstanding reports how many files are currently checked out.
func (m *CheckOutManager) Outstanding() int { return m.inner.OutstandingCheckouts() }

// CopyUpdateManager is the copy-and-update discipline: private copies, no
// locks, consistency left to the application — including the possibility of
// lost updates with blind check-ins ("and it does occur", §3).
type CopyUpdateManager struct {
	inner *cau.Manager
}

// WorkCopy is a private copy of a file.
type WorkCopy struct {
	inner *cau.WorkCopy
}

// Content returns the private copy for editing.
func (w *WorkCopy) Content() []byte { return w.inner.Content }

// SetContent replaces the private copy.
func (w *WorkCopy) SetContent(p []byte) { w.inner.Content = p }

// NewCopyUpdateManager creates a copy-and-update coordinator over one file
// server.
func (s *System) NewCopyUpdateManager(server string) (*CopyUpdateManager, error) {
	srv, err := s.core.Server(server)
	if err != nil {
		return nil, err
	}
	return &CopyUpdateManager{inner: cau.New(srv.Phys, srv.Archive, server, nil)}, nil
}

// Copy takes a private, lock-free copy of the file.
func (m *CopyUpdateManager) Copy(url string) (*WorkCopy, error) {
	w, err := m.inner.Copy(url)
	if err != nil {
		return nil, err
	}
	return &WorkCopy{inner: w}, nil
}

// CheckInBlind writes the copy back unconditionally (last writer wins; a
// concurrent committed update is silently lost and counted).
func (m *CopyUpdateManager) CheckInBlind(w *WorkCopy) error { return m.inner.CheckInBlind(w.inner) }

// CheckInSafe writes back only if the file is unchanged since Copy;
// otherwise merge (base, mine, theirs) is consulted, or the check-in fails.
func (m *CopyUpdateManager) CheckInSafe(w *WorkCopy, merge func(base, mine, theirs []byte) ([]byte, error)) error {
	if merge == nil {
		return m.inner.CheckInSafe(w.inner, nil)
	}
	return m.inner.CheckInSafe(w.inner, cau.MergeFunc(merge))
}

// Stats reports copies taken, lost updates, merges, and rejected check-ins.
func (m *CopyUpdateManager) Stats() (copies, lost, merges, rejects int64) {
	return m.inner.Stats()
}
