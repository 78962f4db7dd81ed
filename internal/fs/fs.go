// Package fs implements the physical file system substrate that DataLinks
// manages: an in-memory UNIX-like file system with inodes, ownership,
// permission bits, modification times, and advisory whole-file locks.
//
// It stands in for the AIX JFS/UFS file systems of the paper. The DataLinks
// File System (internal/dlfs) interposes on it through the VFS interface in
// internal/vfs; this package knows nothing about databases or links.
//
// The file system is "the disk": it survives simulated crashes as-is,
// including partially written files — which is precisely why the DLFM
// archive-restore protocol of the paper is needed for update atomicity.
//
// A file's content pages against a chunk source (extent.Source), the
// archived version its committed bytes were stored as. WriteFileDeferred
// installs a file from one without reading it: the file exists at its size,
// and each access loads only the chunks it touches. Cold-start recovery, a
// promote, a rollback and a restore install every file this way, so they
// cost what is touched rather than every file's bytes; a rollback first moves
// the in-flight content to its quarantine file (MoveContent), source and all,
// without reading it either. SetSource hands a committed file the version its
// capture was archived as, and from then on the file system may page a clean
// chunk — one not written since — out of memory: once the resident chunk
// bytes of all files pass the budget (SetMemoryBudget), clean chunks are
// dropped by second chance, a read giving a chunk its second chance. A dirty
// chunk, a tail and a file without a source never leave. Loading happens under the inode's write lock; a load
// that fails leaves the chunk absent and reports ErrIO — no access ever sees
// empty bytes.
//
// Locking is deliberately fine-grained so concurrent clients scale:
//
//   - Every directory carries its own namespace lock (Inode.nsMu) guarding
//     just its children map. Path resolution walks hand-over-hand, holding
//     one directory's read lock at a time; create/remove/rename write-lock
//     only the parent directories they mutate. Namespace traffic in one
//     directory never serializes against another — there is no tree-wide
//     lock.
//   - Every inode carries its own read/write lock (Inode.mu) guarding its
//     attributes and data. Content reads copy under the inode's read lock
//     only, so readers of different files — and multiple readers of the same
//     file — never serialize against each other or against namespace ops.
//   - Link counts and the inode-number allocator are atomics.
//   - Advisory locks (fs_lockctl) have a separate per-inode mutex so lock
//     traffic on one file cannot block I/O on another.
//   - Op counters are atomics, off every lock entirely.
//
// Lock order: when an operation needs two directory nsMu locks (Rmdir's
// emptiness check, Rename's two parents) it acquires them in increasing
// inode-number order; everything else holds at most one nsMu. An Inode.mu
// may be taken while holding an nsMu (permission checks, mtime touches),
// never the reverse. lkMu is leaf-level and independent.
//
// With no tree-wide lock, a path resolved by one operation can be
// concurrently renamed by another; operations act atomically on the inodes
// resolution yielded, the same lookup/op race every real VFS exposes.
package fs

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datalinks/internal/extent"
	"datalinks/internal/metrics"
)

// UID identifies a user. UID 0 is root and bypasses permission checks.
type UID int32

// Root is the superuser; permission checks always succeed for it.
const Root UID = 0

// Cred carries the credentials of the process issuing a file operation.
type Cred struct {
	UID UID
}

// FileMode holds UNIX-style permission bits. Only the lower 9 bits are used.
type FileMode uint16

// Permission bit masks for owner and everyone else. Group permissions exist
// for completeness but DataLinks only distinguishes owner vs other.
const (
	ModeOwnerRead  FileMode = 0o400
	ModeOwnerWrite FileMode = 0o200
	ModeGroupRead  FileMode = 0o040
	ModeGroupWrite FileMode = 0o020
	ModeOtherRead  FileMode = 0o004
	ModeOtherWrite FileMode = 0o002
)

// AccessMode is the mode with which a file is opened.
type AccessMode uint8

// Open access modes.
const (
	AccessRead AccessMode = 1 << iota
	AccessWrite
)

// ReadWrite is a convenience constant for read-write opens.
const ReadWrite = AccessRead | AccessWrite

func (m AccessMode) String() string {
	switch m {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case ReadWrite:
		return "read-write"
	default:
		return fmt.Sprintf("AccessMode(%d)", uint8(m))
	}
}

// Errors returned by file system operations. They mirror the errno values a
// real VFS would surface; DLFS dispatches on ErrPermission to trigger the
// rfd write-open upcall path exactly as the paper describes.
var (
	ErrNotExist   = errors.New("fs: no such file or directory")
	ErrExist      = errors.New("fs: file exists")
	ErrPermission = errors.New("fs: permission denied")
	ErrIsDir      = errors.New("fs: is a directory")
	ErrNotDir     = errors.New("fs: not a directory")
	ErrNotEmpty   = errors.New("fs: directory not empty")
	ErrLocked     = errors.New("fs: file locked")
	ErrInvalid    = errors.New("fs: invalid argument")
	ErrIO         = errors.New("fs: input/output error")
)

// NodeType distinguishes files from directories.
type NodeType uint8

// Inode types.
const (
	TypeFile NodeType = iota + 1
	TypeDir
)

// Attr is the stat-like attribute block of an inode.
type Attr struct {
	Ino   uint64
	Type  NodeType
	UID   UID
	Mode  FileMode
	Size  int64
	Mtime time.Time
}

// Inode is a file or directory. Callers treat *Inode as an opaque vnode
// pointer; all field access goes through FS methods so locking stays inside
// the package.
type Inode struct {
	ino uint64   // immutable after creation
	typ NodeType // immutable after creation

	// mu guards the attribute block and file content. Content is an extent
	// buffer: writes copy-on-write only the 64 KiB chunks they touch, and
	// snapshots (the archive path) are O(#chunks) reference grabs instead of
	// whole-file copies.
	mu    sync.RWMutex
	uid   UID
	mode  FileMode
	mtime time.Time
	data  extent.Buffer
	// unlinked: the inode's resident chunks left the file system's count
	// when its last name went; what handles load after stays uncounted.
	unlinked bool

	// ring is the inode's index in the pager's ring plus one (0: not in
	// it). Guarded by the pager's mu.
	ring int

	// nsMu is this directory's namespace lock, guarding children. Mutating
	// a directory takes it exclusive; resolution and listing take it shared.
	// Unused on files.
	nsMu     sync.RWMutex
	children map[string]*Inode // directories only

	// nlink is the link count: 0 once unlinked (data stays readable for open
	// handles). For directories it doubles as the liveness flag Create checks
	// so a racing Rmdir cannot resurrect a detached directory.
	nlink atomic.Int32

	// Advisory lock state, guarded by its own mutex so lock traffic on one
	// file never blocks content I/O on another.
	lkMu sync.Mutex
	lock fileLock
}

// Ino returns the inode number, stable for the life of the file.
func (n *Inode) Ino() uint64 { return n.ino }

// fileLock is an advisory whole-file read/write lock (fs_lockctl).
type fileLock struct {
	readers map[string]int // owner -> count
	writer  string         // owner holding the exclusive lock, "" if none
	waiters []chan struct{}
}

// LockOp selects the fs_lockctl operation.
type LockOp uint8

// Lock operations: shared (read) lock, exclusive (write) lock, unlock.
const (
	LockShared LockOp = iota + 1
	LockExclusive
	LockUnlock
)

// Clock supplies the current time; injectable for deterministic tests.
type Clock func() time.Time

// Stats holds the op counters, read by the experiment harness as "syscall
// counts". All fields are atomics so the hot paths never take a lock for
// accounting.
type Stats struct {
	Lookups  atomic.Int64
	Opens    atomic.Int64
	Reads    atomic.Int64
	Writes   atomic.Int64
	Removes  atomic.Int64
	Renames  atomic.Int64
	Setattrs atomic.Int64
	// DeferredLoads counts chunks read in from a source (a chunk slot or a
	// tail, one each).
	DeferredLoads atomic.Int64
}

// FS is an in-memory file system. All methods are safe for concurrent use.
type FS struct {
	root  *Inode
	next  atomic.Uint64 // inode-number allocator
	clock Clock

	Stats Stats
	pg    pager
}

// pager keeps the file system's resident chunk bytes within a budget. Every
// change to an inode's resident bytes is added to resident under the inode's
// lock; once resident passes the budget, a clock hand
// walks the ring of inodes that have a source and pages clean chunks out
// (extent.Buffer.PageOut), taking each inode's lock only if it is free.
type pager struct {
	budget int64 // 0: nothing is paged out
	// resident, pageouts and faultins are fs.resident_bytes, fs.pageouts and
	// fs.faultins of the registry SetMemoryBudget was given.
	resident, pageouts, faultins *metrics.Counter

	mu   sync.Mutex
	ring []*Inode
	hand int // ring index the next page-out starts at
	slot int // chunk slot of ring[hand] it starts at
}

// excess is how far the resident bytes are over the budget (<= 0: within).
func (p *pager) excess() int64 {
	if p.budget <= 0 {
		return 0
	}
	return p.resident.Value() - p.budget
}

// New returns an empty file system with a root directory owned by root.
func New() *FS {
	return NewWithClock(time.Now)
}

// NewWithClock returns an empty file system using the given clock.
func NewWithClock(clock Clock) *FS {
	f := &FS{clock: clock}
	f.pg.resident, f.pg.pageouts, f.pg.faultins = new(metrics.Counter), new(metrics.Counter), new(metrics.Counter)
	f.next.Store(1)
	f.root = &Inode{
		ino:      1,
		typ:      TypeDir,
		uid:      Root,
		mode:     0o755,
		mtime:    clock(),
		children: make(map[string]*Inode),
	}
	f.root.nlink.Store(1)
	return f
}

// clean normalizes a path to an absolute, slash-separated form.
func clean(p string) (string, error) {
	if p == "" {
		return "", ErrInvalid
	}
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p), nil
}

// split returns the parent directory path and base name of p.
func split(p string) (dir, base string) {
	dir, base = path.Split(p)
	if dir != "/" {
		dir = strings.TrimSuffix(dir, "/")
	}
	if dir == "" {
		dir = "/"
	}
	return dir, base
}

// resolve walks the tree to the inode at p, hand-over-hand: each step holds
// only the current directory's namespace read lock, so resolutions in
// disjoint subtrees never contend.
func (f *FS) resolve(p string) (*Inode, error) {
	p, err := clean(p)
	if err != nil {
		return nil, err
	}
	cur := f.root
	for rest := p[1:]; rest != ""; {
		var part string
		part, rest, _ = strings.Cut(rest, "/")
		if cur.typ != TypeDir {
			return nil, ErrNotDir
		}
		cur.nsMu.RLock()
		child, ok := cur.children[part]
		cur.nsMu.RUnlock()
		if !ok {
			return nil, ErrNotExist
		}
		cur = child
	}
	return cur, nil
}

// permOK reports whether cred may access an inode with the given mode.
// Caller must hold n.mu (shared or exclusive).
func permOK(n *Inode, cred Cred, want AccessMode) bool {
	if cred.UID == Root {
		return true
	}
	var readBit, writeBit FileMode
	if n.uid == cred.UID {
		readBit, writeBit = ModeOwnerRead, ModeOwnerWrite
	} else {
		readBit, writeBit = ModeOtherRead, ModeOtherWrite
	}
	if want&AccessRead != 0 && n.mode&readBit == 0 {
		return false
	}
	if want&AccessWrite != 0 && n.mode&writeBit == 0 {
		return false
	}
	return true
}

// permCheck takes the inode's read lock for a permission check.
func permCheck(n *Inode, cred Cred, want AccessMode) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return permOK(n, cred, want)
}

// Lookup resolves a path to its inode without any permission check on the
// target (matching UNIX fs_lookup semantics used by LFS before fs_open).
func (f *FS) Lookup(p string) (*Inode, error) {
	f.Stats.Lookups.Add(1)
	return f.resolve(p)
}

// OpenCheck performs the fs_open permission check against an inode. It does
// not allocate any handle state; the LFS layer owns the open-file table.
func (f *FS) OpenCheck(n *Inode, cred Cred, mode AccessMode) error {
	f.Stats.Opens.Add(1)
	if n == nil {
		return ErrInvalid
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.typ == TypeDir && mode&AccessWrite != 0 {
		return ErrIsDir
	}
	if !permOK(n, cred, mode) {
		return ErrPermission
	}
	return nil
}

// lockParent resolves the parent directory of p and write-locks its
// namespace, verifying under the lock that the directory is still linked
// (a racing Rmdir may have detached it after resolution). The caller must
// release dir.nsMu.
func (f *FS) lockParent(p string) (dir *Inode, base string, err error) {
	dirPath, base := split(p)
	dir, err = f.resolve(dirPath)
	if err != nil {
		return nil, "", err
	}
	if dir.typ != TypeDir {
		return nil, "", ErrNotDir
	}
	dir.nsMu.Lock()
	if dir.nlink.Load() == 0 {
		dir.nsMu.Unlock()
		return nil, "", ErrNotExist
	}
	return dir, base, nil
}

// Create makes a new empty file at p owned by cred with the given mode.
func (f *FS) Create(p string, cred Cred, mode FileMode) (*Inode, error) {
	return f.create(p, cred, mode, nil)
}

// create is Create; fill, when not nil, gives the new inode its content
// before it is linked, under the parent's namespace lock, and an error from
// it fails the create.
func (f *FS) create(p string, cred Cred, mode FileMode, fill func(n *Inode) error) (*Inode, error) {
	p, err := clean(p)
	if err != nil {
		return nil, err
	}
	dir, base, err := f.lockParent(p)
	if err != nil {
		return nil, err
	}
	defer dir.nsMu.Unlock()
	if !permCheck(dir, cred, AccessWrite) {
		return nil, ErrPermission
	}
	if _, ok := dir.children[base]; ok {
		return nil, ErrExist
	}
	n := &Inode{
		ino:   f.next.Add(1),
		typ:   TypeFile,
		uid:   cred.UID,
		mode:  mode,
		mtime: f.clock(),
	}
	if fill != nil {
		if err := fill(n); err != nil {
			return nil, err
		}
	}
	n.nlink.Store(1)
	dir.children[base] = n
	f.touch(dir)
	return n, nil
}

// touch sets an inode's mtime to now under its attribute lock.
func (f *FS) touch(n *Inode) {
	now := f.clock()
	n.mu.Lock()
	n.mtime = now
	n.mu.Unlock()
}

// Mkdir creates a directory at p.
func (f *FS) Mkdir(p string, cred Cred, mode FileMode) (*Inode, error) {
	p, err := clean(p)
	if err != nil {
		return nil, err
	}
	dir, base, err := f.lockParent(p)
	if err != nil {
		return nil, err
	}
	defer dir.nsMu.Unlock()
	if !permCheck(dir, cred, AccessWrite) {
		return nil, ErrPermission
	}
	if _, ok := dir.children[base]; ok {
		return nil, ErrExist
	}
	n := &Inode{
		ino:      f.next.Add(1),
		typ:      TypeDir,
		uid:      cred.UID,
		mode:     mode,
		mtime:    f.clock(),
		children: make(map[string]*Inode),
	}
	n.nlink.Store(1)
	dir.children[base] = n
	return n, nil
}

// MkdirAll creates p and any missing parents, ignoring ErrExist: it returns
// what a Mkdir of each prefix of p in turn would, stopping at the first error
// other than ErrExist.
func (f *FS) MkdirAll(p string, cred Cred, mode FileMode) error {
	p, err := clean(p)
	if err != nil {
		return err
	}
	// The prefixes that exist are resolved, not made: a Mkdir of one fails
	// with ErrNotDir under a non-directory, ErrPermission in a directory cred
	// may not write, and with ErrExist, ignored, otherwise. A path that
	// exists whole is resolved and nothing is made.
	cur, rest := f.root, p[1:]
	for rest != "" {
		part, tail, _ := strings.Cut(rest, "/")
		if cur.typ != TypeDir {
			return ErrNotDir
		}
		if !permCheck(cur, cred, AccessWrite) {
			return ErrPermission
		}
		cur.nsMu.RLock()
		child, ok := cur.children[part]
		cur.nsMu.RUnlock()
		if !ok {
			break
		}
		cur, rest = child, tail
	}
	// Each prefix from the first missing one on is made, p[:end] for every
	// separator after it and the end of p.
	for end := len(p) - len(rest); rest != ""; {
		part, tail, _ := strings.Cut(rest, "/")
		end += len(part)
		if _, err := f.Mkdir(p[:end], cred, mode); err != nil && !errors.Is(err, ErrExist) {
			return err
		}
		end++ // the separator
		rest = tail
	}
	return nil
}

// Remove unlinks the file at p. Directories must be removed with Rmdir.
func (f *FS) Remove(p string, cred Cred) error {
	f.Stats.Removes.Add(1)
	p, err := clean(p)
	if err != nil {
		return err
	}
	dir, base, err := f.lockParent(p)
	if err != nil {
		return err
	}
	defer dir.nsMu.Unlock()
	n, ok := dir.children[base]
	if !ok {
		return ErrNotExist
	}
	if n.typ == TypeDir {
		return ErrIsDir
	}
	if !permCheck(dir, cred, AccessWrite) {
		return ErrPermission
	}
	delete(dir.children, base)
	if n.nlink.Add(-1) == 0 {
		f.releaseContent(n)
	}
	f.touch(dir)
	return nil
}

// releaseContent drops the chunk references of a fully unlinked inode and
// takes its resident bytes out of the file system's count. The content stays
// readable for open handles — absent chunks keep loading from the inode's
// source, uncounted; extent accounting just stops counting it as live (a
// later write through a handle re-retains).
func (f *FS) releaseContent(n *Inode) {
	n.mu.Lock()
	f.pg.resident.Add(-n.data.Resident())
	n.unlinked = true
	n.data.ReleaseRefs()
	n.mu.Unlock()
	f.untrack(n)
}

// Rmdir removes an empty directory at p. It needs two nsMu locks at once —
// the parent's (to drop the entry) and the target's (to check emptiness and
// tombstone it against racing Creates) — so it acquires them in inode-number
// order, backing off and re-verifying the binding when the target's ino is
// the smaller one (possible only after a directory rename).
func (f *FS) Rmdir(p string, cred Cred) error {
	p, err := clean(p)
	if err != nil {
		return err
	}
	if p == "/" {
		return ErrInvalid
	}
	dir, base, err := f.lockParent(p)
	if err != nil {
		return err
	}
	defer dir.nsMu.Unlock()
	n, ok := dir.children[base]
	if !ok {
		return ErrNotExist
	}
	if n.typ != TypeDir {
		return ErrNotDir
	}
	if n.ino > dir.ino {
		n.nsMu.Lock()
	} else {
		dir.nsMu.Unlock()
		n.nsMu.Lock()
		dir.nsMu.Lock()
		if dir.nlink.Load() == 0 {
			n.nsMu.Unlock()
			return ErrNotExist
		}
		if cur, ok := dir.children[base]; !ok || cur != n {
			n.nsMu.Unlock()
			return ErrNotExist
		}
	}
	defer n.nsMu.Unlock()
	if len(n.children) != 0 {
		return ErrNotEmpty
	}
	if !permCheck(dir, cred, AccessWrite) {
		return ErrPermission
	}
	delete(dir.children, base)
	n.nlink.Store(0)
	return nil
}

// lockDirPair write-locks two directory namespaces in inode-number order
// (one lock if they are the same directory) — the package's lock-order
// discipline for two-lock operations.
func lockDirPair(a, b *Inode) {
	switch {
	case a == b:
		a.nsMu.Lock()
	case a.ino < b.ino:
		a.nsMu.Lock()
		b.nsMu.Lock()
	default:
		b.nsMu.Lock()
		a.nsMu.Lock()
	}
}

func unlockDirPair(a, b *Inode) {
	a.nsMu.Unlock()
	if a != b {
		b.nsMu.Unlock()
	}
}

// Rename moves oldp to newp, replacing any existing file at newp.
func (f *FS) Rename(oldp, newp string, cred Cred) error {
	f.Stats.Renames.Add(1)
	oldp, err := clean(oldp)
	if err != nil {
		return err
	}
	newp, err = clean(newp)
	if err != nil {
		return err
	}
	oldDirPath, oldBase := split(oldp)
	newDirPath, newBase := split(newp)
	oldDir, err := f.resolve(oldDirPath)
	if err != nil {
		return err
	}
	newDir, err := f.resolve(newDirPath)
	if err != nil {
		return err
	}
	if oldDir.typ != TypeDir || newDir.typ != TypeDir {
		return ErrNotDir
	}
	lockDirPair(oldDir, newDir)
	defer unlockDirPair(oldDir, newDir)
	if oldDir.nlink.Load() == 0 || newDir.nlink.Load() == 0 {
		return ErrNotExist
	}
	n, ok := oldDir.children[oldBase]
	if !ok {
		return ErrNotExist
	}
	if !permCheck(oldDir, cred, AccessWrite) || !permCheck(newDir, cred, AccessWrite) {
		return ErrPermission
	}
	if existing, ok := newDir.children[newBase]; ok {
		if existing.typ == TypeDir {
			return ErrIsDir
		}
		if existing.nlink.Add(-1) == 0 {
			f.releaseContent(existing)
		}
	}
	delete(oldDir.children, oldBase)
	newDir.children[newBase] = n
	f.touch(oldDir)
	if newDir != oldDir {
		f.touch(newDir)
	}
	return nil
}

// SetMemoryBudget makes the file system page clean chunks out once its
// resident chunk bytes pass budget (<= 0: never), and publishes
// fs.resident_bytes (a gauge), fs.pageouts and fs.faultins (in chunks) in
// reg. Call it before the file system holds any content.
func (f *FS) SetMemoryBudget(budget int64, reg *metrics.Registry) {
	f.pg.budget = budget
	f.pg.resident = reg.Counter("fs.resident_bytes")
	f.pg.pageouts = reg.Counter("fs.pageouts")
	f.pg.faultins = reg.Counter("fs.faultins")
}

// ResidentBytes reports the bytes of chunk slots the file system's linked
// files hold in memory.
func (f *FS) ResidentBytes() int64 { return f.pg.resident.Value() }

// settle adds the change of n's resident bytes since before to the file
// system's count — nothing once n is unlinked. Caller holds n.mu
// exclusively.
func (f *FS) settle(n *Inode, before int64) {
	if !n.unlinked {
		f.pg.resident.Add(n.data.Resident() - before)
	}
}

// loaded accounts chunks loaded from n's source, and wraps a load error as
// ErrIO. Loading is not a modification: mtime stays.
func (f *FS) loaded(n *Inode, count int, err error) error {
	if count > 0 {
		f.Stats.DeferredLoads.Add(int64(count))
		f.pg.faultins.Add(int64(count))
	}
	if err != nil {
		return fmt.Errorf("%w: inode %d: %w", ErrIO, n.ino, err)
	}
	return nil
}

// track puts n in the pager's ring once it has a source.
func (f *FS) track(n *Inode) {
	p := &f.pg
	p.mu.Lock()
	if n.ring == 0 {
		p.ring = append(p.ring, n)
		n.ring = len(p.ring)
	}
	p.mu.Unlock()
}

// untrack takes an unlinked n out of the ring, so the ring keeps no removed
// file's content reachable.
func (f *FS) untrack(n *Inode) {
	p := &f.pg
	p.mu.Lock()
	if n.ring != 0 {
		p.dropLocked(n.ring - 1)
	}
	p.mu.Unlock()
}

// dropLocked removes ring[i], moving the last inode into its place. Caller
// holds mu.
func (p *pager) dropLocked(i int) {
	last := len(p.ring) - 1
	p.ring[i].ring = 0
	if i != last {
		p.ring[i] = p.ring[last]
		p.ring[i].ring = i + 1
	}
	p.ring[last] = nil
	p.ring = p.ring[:last]
}

// pageOut pages clean chunks out, second chance, while the resident bytes
// are over the budget: the hand resumes where the last page-out stopped and
// goes round the ring at most twice — a first pass clears referenced bits,
// the second drops what is still clear. An inode whose lock is taken is
// passed over, so no caller waits here for another file's lock, and one
// that has lost its source or its last name leaves the ring. Callers hold
// no inode lock.
func (f *FS) pageOut() {
	p := &f.pg
	if p.excess() <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for visits := 0; visits <= 2*len(p.ring); visits++ {
		want := p.excess()
		if want <= 0 || len(p.ring) == 0 {
			return
		}
		if p.hand >= len(p.ring) {
			p.hand, p.slot = 0, 0
		}
		n := p.ring[p.hand]
		if !n.mu.TryLock() {
			p.hand, p.slot = p.hand+1, 0
			continue
		}
		if !n.data.Pageable() {
			p.dropLocked(p.hand)
			p.slot = 0
			n.mu.Unlock()
			continue
		}
		next, freed := n.data.PageOut(p.slot, want)
		done := next >= n.data.NumChunks()
		n.mu.Unlock()
		p.resident.Add(-freed)
		p.pageouts.Add(freed / extent.ChunkSize)
		if done {
			p.hand, p.slot = p.hand+1, 0
		} else {
			p.slot = next
		}
	}
}

// SetSource hands the file at p its chunk source: src is the version the
// file's capture id was archived as, and the file owns it from the call on.
// Unless the file was captured again or replaced since (then src is released
// and nothing changes), its clean chunks may now be paged out, and the
// file system pages out what the budget asks.
func (f *FS) SetSource(p string, id uint64, src extent.Source) error {
	n, err := f.resolve(p)
	if err == nil && n.typ != TypeFile {
		err = ErrIsDir
	}
	if err != nil {
		src.Release()
		return err
	}
	n.mu.Lock()
	ok := !n.unlinked && n.data.Attach(id, src)
	n.mu.Unlock()
	if !ok {
		src.Release()
		return nil
	}
	f.track(n)
	f.pageOut()
	return nil
}

// ReadAt reads from the file at offset off into p, returning bytes read.
// Reading at or past EOF returns 0 with no error (callers detect EOF by n=0).
// A read of present chunks takes only the inode's read lock: concurrent
// reads — of the same file or different files — proceed in parallel. A read
// that touches an absent chunk loads it and reads under the write lock.
func (f *FS) ReadAt(n *Inode, off int64, p []byte) (int, error) {
	f.Stats.Reads.Add(1)
	if n == nil || n.typ != TypeFile {
		return 0, ErrInvalid
	}
	if off < 0 {
		return 0, ErrInvalid
	}
	return f.read(n, off, p)
}

// read is ReadAt without the op count.
func (f *FS) read(n *Inode, off int64, p []byte) (int, error) {
	n.mu.RLock()
	if !n.data.Absent(off, int64(len(p))) {
		defer n.mu.RUnlock()
		return n.data.ReadAt(off, p), nil
	}
	n.mu.RUnlock()
	n.mu.Lock()
	before := n.data.Resident()
	count, err := n.data.LoadRange(off, int64(len(p)))
	f.settle(n, before)
	read := 0
	if err == nil {
		read = n.data.ReadAt(off, p)
	}
	n.mu.Unlock()
	if err := f.loaded(n, count, err); err != nil {
		return 0, err
	}
	f.pageOut()
	return read, nil
}

// WriteAt writes p to the file at offset off, extending it as needed.
// It updates size and mtime — the metadata DLFM propagates to the database.
// Only the target inode's write lock is taken.
func (f *FS) WriteAt(n *Inode, off int64, p []byte) (int, error) {
	f.Stats.Writes.Add(1)
	if n == nil || n.typ != TypeFile {
		return 0, ErrInvalid
	}
	if off < 0 {
		return 0, ErrInvalid
	}
	n.mu.Lock()
	before := n.data.Resident()
	count, err := n.data.LoadEdges(off, off+int64(len(p)))
	if err == nil {
		n.data.WriteAt(off, p)
		// Clock read under the inode lock: concurrent writers must leave
		// data and mtime consistent (DLFM's modification detection compares
		// mtimes).
		n.mtime = f.clock()
	}
	f.settle(n, before)
	n.mu.Unlock()
	if err := f.loaded(n, count, err); err != nil {
		return 0, err
	}
	f.pageOut()
	return len(p), nil
}

// Truncate sets the file length to size. Only a chunk that size cuts in part
// is loaded; the rest of an absent file is dropped unread.
func (f *FS) Truncate(n *Inode, size int64) error {
	if n == nil || n.typ != TypeFile {
		return ErrInvalid
	}
	if size < 0 {
		return ErrInvalid
	}
	n.mu.Lock()
	before := n.data.Resident()
	count, err := n.data.LoadEdges(size, size)
	if err == nil {
		n.data.Truncate(size)
		n.mtime = f.clock()
	}
	f.settle(n, before)
	n.mu.Unlock()
	return f.loaded(n, count, err)
}

// Getattr returns the attribute block of an inode.
func (f *FS) Getattr(n *Inode) (Attr, error) {
	if n == nil {
		return Attr{}, ErrInvalid
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	return Attr{
		Ino:   n.ino,
		Type:  n.typ,
		UID:   n.uid,
		Mode:  n.mode,
		Size:  n.data.Len(),
		Mtime: n.mtime,
	}, nil
}

// Chown changes the owner of an inode. Only root (or the DLFM process running
// as root) may take over ownership — matching the take-over mechanics of §4.
func (f *FS) Chown(n *Inode, cred Cred, uid UID) error {
	f.Stats.Setattrs.Add(1)
	if n == nil {
		return ErrInvalid
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if cred.UID != Root && cred.UID != n.uid {
		return ErrPermission
	}
	n.uid = uid
	return nil
}

// Chmod changes the permission bits of an inode.
func (f *FS) Chmod(n *Inode, cred Cred, mode FileMode) error {
	f.Stats.Setattrs.Add(1)
	if n == nil {
		return ErrInvalid
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if cred.UID != Root && cred.UID != n.uid {
		return ErrPermission
	}
	n.mode = mode
	return nil
}

// SetMtime overrides the modification time (used by restore).
func (f *FS) SetMtime(n *Inode, t time.Time) error {
	if n == nil {
		return ErrInvalid
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.mtime = t
	return nil
}

// ReadDir lists the entries of the directory at p in sorted order.
func (f *FS) ReadDir(p string) ([]string, error) {
	dir, err := f.resolve(p)
	if err != nil {
		return nil, err
	}
	if dir.typ != TypeDir {
		return nil, ErrNotDir
	}
	dir.nsMu.RLock()
	names := make([]string, 0, len(dir.children))
	for name := range dir.children {
		names = append(names, name)
	}
	dir.nsMu.RUnlock()
	sort.Strings(names)
	return names, nil
}

// ReadFile returns a copy of the whole file content at p.
func (f *FS) ReadFile(p string) ([]byte, error) {
	n, err := f.resolve(p)
	if err != nil {
		return nil, err
	}
	if n.typ != TypeFile {
		return nil, ErrIsDir
	}
	n.mu.RLock()
	out := make([]byte, n.data.Len())
	n.mu.RUnlock()
	read, err := f.read(n, 0, out)
	if err != nil {
		return nil, err
	}
	return out[:read], nil
}

// lookupOrCreate resolves the file at p, creating it owned by root if it
// does not exist — the root-semantics entry of the whole-file writers.
func (f *FS) lookupOrCreate(p string) (*Inode, error) {
	n, err := f.Lookup(p)
	if errors.Is(err, ErrNotExist) {
		n, err = f.Create(p, Cred{UID: Root}, 0o644)
		if errors.Is(err, ErrExist) {
			// A concurrent writer created it between lookup and create.
			n, err = f.Lookup(p)
		}
	}
	return n, err
}

// WriteFile replaces the whole content of the file at p, creating it if
// needed. It bypasses permission checks (root semantics) — a convenience for
// tests and restore paths only.
func (f *FS) WriteFile(p string, data []byte) error {
	n, err := f.lookupOrCreate(p)
	if err != nil {
		return err
	}
	if err := f.Truncate(n, 0); err != nil {
		return err
	}
	_, err = f.WriteAt(n, 0, data)
	return err
}

// CaptureFile captures the file at p as an immutable extent manifest in
// O(#chunks) for the commit path: the snapshot is the file's next capture
// (extent.Buffer.Capture), carrying what changed since the previous one.
// Absent chunks stay absent, behind the file's source; only an absent tail is
// loaded. A file has one commit stream — take one capture per committed
// version and hand it to everything that archives that version. The caller
// owns the returned snapshot and must Release it (or hand it to an owner
// that will).
func (f *FS) CaptureFile(p string) (*extent.Snapshot, error) {
	n, err := f.resolve(p)
	if err != nil {
		return nil, err
	}
	if n.typ != TypeFile {
		return nil, ErrIsDir
	}
	n.mu.Lock()
	count, err := n.data.LoadEdges(n.data.Len(), n.data.Len())
	var snap *extent.Snapshot
	if err == nil {
		snap = n.data.Capture()
	}
	n.mu.Unlock()
	return snap, f.loaded(n, count, err)
}

// MoveContent moves the content of the file at p — its chunks, tail, chunk
// source, capture and written spans, as they are — into a new file at to
// (root semantics, like WriteFile), which appears with the content, and
// leaves p empty: its inode, attributes and open handles stay. It reads
// nothing, retains no chunk and holds one inode lock at a time. The moved
// content pages out against its source like any file's.
func (f *FS) MoveContent(p, to string) error {
	n, err := f.resolve(p)
	if err == nil && n.typ != TypeFile {
		err = ErrIsDir
	}
	if err != nil {
		return err
	}
	dst, err := f.create(to, Cred{UID: Root}, 0o644, func(dst *Inode) error {
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.unlinked {
			return ErrNotExist
		}
		// Both files are linked, so the resident count stays as it is.
		dst.data, n.data = n.data, extent.Buffer{}
		n.mtime = dst.mtime
		return nil
	})
	if err == nil {
		f.track(dst)
	}
	return err
}

// WriteFileDeferred replaces the content of the file at p with src's,
// creating the file if needed (root semantics, like WriteFile), without
// reading it: the file reports src's size at once, its mtime is now, and each
// access loads only the chunks it touches. The
// file owns src from the call on — it releases src when the content is
// replaced, and at once when the call fails.
func (f *FS) WriteFileDeferred(p string, src extent.Source) error {
	n, err := f.lookupOrCreate(p)
	if err == nil && n.typ != TypeFile {
		err = ErrIsDir
	}
	if err != nil {
		src.Release()
		return err
	}
	n.mu.Lock()
	before := n.data.Resident()
	n.data.Install(src)
	f.settle(n, before)
	n.mtime = f.clock()
	n.mu.Unlock()
	f.track(n)
	return nil
}

// Lockctl implements advisory whole-file locking (the fs_lockctl entry
// point). TryLockctl is the non-blocking variant. The owner string names the
// lock holder; re-locking by the same owner is idempotent for shared locks.
func (f *FS) Lockctl(n *Inode, owner string, op LockOp) error {
	if n == nil {
		return ErrInvalid
	}
	for {
		n.lkMu.Lock()
		err := n.tryLockctlLocked(owner, op)
		if !errors.Is(err, ErrLocked) {
			n.lkMu.Unlock()
			return err
		}
		// Conflict: register as a waiter on this inode before releasing the
		// lock mutex, so a concurrent unlock cannot slip through unseen.
		ch := make(chan struct{})
		n.lock.waiters = append(n.lock.waiters, ch)
		n.lkMu.Unlock()
		<-ch
	}
}

// TryLockctl attempts the lock operation without blocking, returning
// ErrLocked on conflict.
func (f *FS) TryLockctl(n *Inode, owner string, op LockOp) error {
	if n == nil {
		return ErrInvalid
	}
	n.lkMu.Lock()
	defer n.lkMu.Unlock()
	return n.tryLockctlLocked(owner, op)
}

// tryLockctlLocked applies one lock operation. Caller holds n.lkMu.
func (n *Inode) tryLockctlLocked(owner string, op LockOp) error {
	lk := &n.lock
	if lk.readers == nil {
		lk.readers = make(map[string]int)
	}
	switch op {
	case LockShared:
		if lk.writer != "" && lk.writer != owner {
			return ErrLocked
		}
		lk.readers[owner]++
		return nil
	case LockExclusive:
		if lk.writer != "" && lk.writer != owner {
			return ErrLocked
		}
		for r := range lk.readers {
			if r != owner {
				return ErrLocked
			}
		}
		lk.writer = owner
		return nil
	case LockUnlock:
		released := false
		if lk.writer == owner {
			lk.writer = ""
			released = true
		}
		if cnt, ok := lk.readers[owner]; ok {
			if cnt <= 1 {
				delete(lk.readers, owner)
			} else {
				lk.readers[owner] = cnt - 1
			}
			released = true
		}
		if released {
			for _, ch := range lk.waiters {
				close(ch)
			}
			lk.waiters = nil
		}
		return nil
	default:
		return ErrInvalid
	}
}

// ClearAllLocks discards every advisory lock and wakes all waiters.
// Advisory locks are kernel state: a machine crash clears them, so restart
// recovery calls this to model the reboot. Traversal snapshots each
// directory under its own read lock; entries created or removed mid-sweep
// may or may not be visited, which a reboot-time sweep tolerates.
func (f *FS) ClearAllLocks() {
	var rec func(n *Inode)
	rec = func(n *Inode) {
		n.lkMu.Lock()
		n.lock.readers = nil
		n.lock.writer = ""
		for _, ch := range n.lock.waiters {
			close(ch)
		}
		n.lock.waiters = nil
		n.lkMu.Unlock()
		for _, child := range snapshotChildren(n) {
			rec(child)
		}
	}
	rec(f.root)
}

// snapshotChildren copies a directory's entries under its namespace read
// lock so traversals recurse without holding any lock.
func snapshotChildren(n *Inode) []*Inode {
	if n.typ != TypeDir {
		return nil
	}
	n.nsMu.RLock()
	kids := make([]*Inode, 0, len(n.children))
	for _, child := range n.children {
		kids = append(kids, child)
	}
	n.nsMu.RUnlock()
	return kids
}

// LockState reports the current holders of a file's advisory lock; used by
// tests to assert serialization behaviour.
func (f *FS) LockState(n *Inode) (writer string, readers []string) {
	n.lkMu.Lock()
	defer n.lkMu.Unlock()
	writer = n.lock.writer
	for r := range n.lock.readers {
		readers = append(readers, r)
	}
	sort.Strings(readers)
	return writer, readers
}

// Walk calls fn for every file (not directory) under root p, with its path.
// Each directory is listed under its own read lock only; files created or
// removed while the walk runs may or may not appear.
func (f *FS) Walk(p string, fn func(path string, attr Attr)) error {
	start, err := f.resolve(p)
	if err != nil {
		return err
	}
	p, _ = clean(p)
	var rec func(prefix string, n *Inode)
	rec = func(prefix string, n *Inode) {
		if n.typ == TypeFile {
			n.mu.RLock()
			attr := Attr{Ino: n.ino, Type: n.typ, UID: n.uid, Mode: n.mode, Size: n.data.Len(), Mtime: n.mtime}
			n.mu.RUnlock()
			fn(prefix, attr)
			return
		}
		n.nsMu.RLock()
		names := make([]string, 0, len(n.children))
		for name := range n.children {
			names = append(names, name)
		}
		children := make([]*Inode, 0, len(names))
		sort.Strings(names)
		for _, name := range names {
			children = append(children, n.children[name])
		}
		n.nsMu.RUnlock()
		for i, name := range names {
			cp := prefix + "/" + name
			if prefix == "/" {
				cp = "/" + name
			}
			rec(cp, children[i])
		}
	}
	rec(p, start)
	return nil
}
