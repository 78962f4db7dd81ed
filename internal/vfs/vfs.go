// Package vfs defines the virtual file system switch and the Logical File
// System (LFS) of the paper's architecture (Figure 1).
//
// The FileSystem interface mirrors the vnode entry points that the AIX LFS
// calls: fs_lookup, fs_open, fs_close, fs_read/fs_write, fs_remove,
// fs_rename, fs_lockctl. It reproduces the open() decoupling the paper's
// §4.1 hinges on: FsLookup receives the *name* (where an access token may be
// embedded) and returns an opaque node; FsOpen receives only the node and the
// access mode — not the name. The paper's DLFS bridges that gap by validating
// the token at lookup and checking a DLFM token entry at open. This DLFS
// allocates the node itself, one per lookup, so it carries the token across
// on the node and presents it with the open upcall — a stated deviation from
// §4.1 that saves the lookup's round trip; the token entry is still recorded
// for other processes of the same uid.
//
// The LFS implements the syscall surface applications use (Open, Read, Write,
// Close, ...) on top of any FileSystem: it decomposes open() into
// FsLookup + file-descriptor allocation + FsOpen, and keeps the system
// open-file table.
package vfs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"datalinks/internal/fs"
)

// Node is an opaque vnode handle returned by FsLookup and consumed by FsOpen.
type Node interface{}

// OpenFile is the per-open state a FileSystem may associate with an open.
// DLFS uses it to remember the linked-file bookkeeping it must undo at close.
type OpenFile interface{}

// FileSystem is the set of vnode entry points a mounted file system provides.
type FileSystem interface {
	// FsLookup resolves name (which may carry an embedded access token) to a
	// node. It is called before FsOpen and does not know the access mode.
	FsLookup(cred fs.Cred, name string) (Node, error)
	// FsOpen opens a previously looked-up node with the given access mode.
	// It does not receive the name — the decoupling of §4.1; what lookup
	// learned from the name travels on the node.
	FsOpen(cred fs.Cred, node Node, mode fs.AccessMode) (OpenFile, error)
	// FsClose releases an open. For DLFS this is where update transactions
	// commit.
	FsClose(cred fs.Cred, node Node, of OpenFile) error
	// FsRead and FsWrite transfer data. DataLinks deliberately does NOT
	// interpose on these (performance, §3.2), but they are part of the
	// interface so a per-write-transaction ablation can.
	FsRead(node Node, of OpenFile, off int64, p []byte) (int, error)
	FsWrite(node Node, of OpenFile, off int64, p []byte) (int, error)
	// FsRemove unlinks a file; FsRename moves one. DLFS rejects both for
	// linked files (referential integrity).
	FsRemove(cred fs.Cred, name string) error
	FsRename(cred fs.Cred, oldName, newName string) error
	// FsGetattr returns the attributes of a node.
	FsGetattr(node Node) (fs.Attr, error)
	// FsCreate makes a new file.
	FsCreate(cred fs.Cred, name string, mode fs.FileMode) (Node, error)
	// FsLockctl acquires or releases an advisory lock on the node.
	FsLockctl(node Node, owner string, op fs.LockOp, block bool) error
	// FsReaddir lists a directory.
	FsReaddir(cred fs.Cred, name string) ([]string, error)
}

// CtxFileSystem is implemented by file systems whose interposed entry
// points accept a request context — the carrier for trace spans. The LFS
// upgrades to it when available; plain FileSystem implementations keep
// working untraced (the same pattern as upcall.CtxService).
type CtxFileSystem interface {
	FsLookupCtx(ctx context.Context, cred fs.Cred, name string) (Node, error)
	FsOpenCtx(ctx context.Context, cred fs.Cred, node Node, mode fs.AccessMode) (OpenFile, error)
	FsCloseCtx(ctx context.Context, cred fs.Cred, node Node, of OpenFile) error
}

// Errors of the LFS layer.
var (
	ErrBadFD = errors.New("vfs: bad file descriptor")
)

// FD is a file descriptor index into a process's LFS table.
type FD int

// fileEntry is one slot of the system open-file table.
//
// The descriptor offset has its own mutex: lookupFD hands the entry out
// after releasing the shard lock, so two goroutines sharing an fd would
// otherwise race on offset (and lose updates — both reading the same offset,
// then both advancing from it). Read/Write hold the mutex across the I/O,
// giving POSIX-style atomic offset advancement on shared descriptors;
// positional ReadAt/WriteAt never touch the offset and stay lock-free.
type fileEntry struct {
	node Node
	of   OpenFile
	cred fs.Cred
	mode fs.AccessMode
	name string

	offMu  sync.Mutex
	offset int64
}

// fdShardCount must be a power of two.
const fdShardCount = 16

// fdShard is one stripe of the open-file table.
type fdShard struct {
	mu    sync.Mutex
	table map[FD]*fileEntry
}

// LFS is the logical file system: the syscall layer applications use.
//
// The open-file table is sharded by descriptor so concurrent opens, closes
// and per-I/O descriptor lookups of unrelated files never serialize on a
// single table mutex; descriptor numbers come from an atomic counter.
type LFS struct {
	fsys FileSystem

	next   atomic.Int64
	shards [fdShardCount]fdShard
}

// NewLFS mounts a FileSystem and returns the syscall layer over it.
func NewLFS(fsys FileSystem) *LFS {
	l := &LFS{fsys: fsys}
	l.next.Store(2) // first allocated descriptor is 3, after stdio
	for i := range l.shards {
		l.shards[i].table = make(map[FD]*fileEntry)
	}
	return l
}

// shard returns the stripe owning fd.
func (l *LFS) shard(fd FD) *fdShard {
	return &l.shards[uint64(fd)&(fdShardCount-1)]
}

// Mounted returns the underlying FileSystem (used by admin tooling).
func (l *LFS) Mounted() FileSystem { return l.fsys }

// Open performs the open() system call: lookup, fd allocation, fs_open.
// On any fs_open failure the fd is released, mirroring kernel behaviour.
func (l *LFS) Open(cred fs.Cred, name string, mode fs.AccessMode) (FD, error) {
	return l.OpenCtx(context.Background(), cred, name, mode)
}

// OpenCtx is Open under a request context, threading it through to a
// CtxFileSystem's lookup and open hooks (trace propagation).
func (l *LFS) OpenCtx(ctx context.Context, cred fs.Cred, name string, mode fs.AccessMode) (FD, error) {
	cfs, hasCtx := l.fsys.(CtxFileSystem)
	var node Node
	var err error
	if hasCtx {
		node, err = cfs.FsLookupCtx(ctx, cred, name)
	} else {
		node, err = l.fsys.FsLookup(cred, name)
	}
	if err != nil {
		return -1, fmt.Errorf("open %s: %w", name, err)
	}
	// The kernel allocates the file structure before calling fs_open (§2.3).
	fd := FD(l.next.Add(1))
	entry := &fileEntry{node: node, cred: cred, mode: mode, name: name}
	sh := l.shard(fd)
	sh.mu.Lock()
	sh.table[fd] = entry
	sh.mu.Unlock()

	var of OpenFile
	if hasCtx {
		of, err = cfs.FsOpenCtx(ctx, cred, node, mode)
	} else {
		of, err = l.fsys.FsOpen(cred, node, mode)
	}
	if err != nil {
		sh.mu.Lock()
		delete(sh.table, fd)
		sh.mu.Unlock()
		return -1, fmt.Errorf("open %s: %w", name, err)
	}
	entry.of = of
	return fd, nil
}

// Create makes a new file and opens it for writing.
func (l *LFS) Create(cred fs.Cred, name string, mode fs.FileMode) (FD, error) {
	if _, err := l.fsys.FsCreate(cred, name, mode); err != nil {
		return -1, fmt.Errorf("create %s: %w", name, err)
	}
	return l.Open(cred, name, fs.AccessWrite)
}

// lookupFD fetches the open-file entry for fd.
func (l *LFS) lookupFD(fd FD) (*fileEntry, error) {
	sh := l.shard(fd)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.table[fd]
	if !ok {
		return nil, ErrBadFD
	}
	return e, nil
}

// Close releases the descriptor and calls fs_close.
func (l *LFS) Close(fd FD) error {
	return l.CloseCtx(context.Background(), fd)
}

// CloseCtx is Close under a request context, threading it through to a
// CtxFileSystem's close hook (where update transactions commit).
func (l *LFS) CloseCtx(ctx context.Context, fd FD) error {
	sh := l.shard(fd)
	sh.mu.Lock()
	e, ok := sh.table[fd]
	if ok {
		delete(sh.table, fd)
	}
	sh.mu.Unlock()
	if !ok {
		return ErrBadFD
	}
	if cfs, hasCtx := l.fsys.(CtxFileSystem); hasCtx {
		return cfs.FsCloseCtx(ctx, e.cred, e.node, e.of)
	}
	return l.fsys.FsClose(e.cred, e.node, e.of)
}

// Read reads up to len(p) bytes at the descriptor's current offset.
// n == 0 with nil error signals EOF.
func (l *LFS) Read(fd FD, p []byte) (int, error) {
	e, err := l.lookupFD(fd)
	if err != nil {
		return 0, err
	}
	if e.mode&fs.AccessRead == 0 {
		return 0, fs.ErrPermission
	}
	e.offMu.Lock()
	defer e.offMu.Unlock()
	n, err := l.fsys.FsRead(e.node, e.of, e.offset, p)
	e.offset += int64(n)
	return n, err
}

// Write writes p at the descriptor's current offset.
func (l *LFS) Write(fd FD, p []byte) (int, error) {
	e, err := l.lookupFD(fd)
	if err != nil {
		return 0, err
	}
	if e.mode&fs.AccessWrite == 0 {
		return 0, fs.ErrPermission
	}
	e.offMu.Lock()
	defer e.offMu.Unlock()
	n, err := l.fsys.FsWrite(e.node, e.of, e.offset, p)
	e.offset += int64(n)
	return n, err
}

// ReadAt and WriteAt are positional variants that do not move the offset.
func (l *LFS) ReadAt(fd FD, off int64, p []byte) (int, error) {
	e, err := l.lookupFD(fd)
	if err != nil {
		return 0, err
	}
	if e.mode&fs.AccessRead == 0 {
		return 0, fs.ErrPermission
	}
	return l.fsys.FsRead(e.node, e.of, off, p)
}

// WriteAt writes p at offset off without moving the descriptor offset.
func (l *LFS) WriteAt(fd FD, off int64, p []byte) (int, error) {
	e, err := l.lookupFD(fd)
	if err != nil {
		return 0, err
	}
	if e.mode&fs.AccessWrite == 0 {
		return 0, fs.ErrPermission
	}
	return l.fsys.FsWrite(e.node, e.of, off, p)
}

// ReadAll reads the whole file behind fd from offset 0. The buffer is sized
// from the file's length, so the usual case is one allocation and one read
// (growing a slice 64 KiB at a time allocated ~2.75x the file per call); a
// file that grows meanwhile is followed by append.
func (l *LFS) ReadAll(fd FD) ([]byte, error) {
	attr, err := l.Stat(fd)
	if err != nil {
		return nil, err
	}
	// +1: the read that finds end-of-file needs room to return 0 into.
	out := make([]byte, 0, attr.Size+1)
	for {
		if len(out) == cap(out) {
			out = append(out, 0)[:len(out)]
		}
		n, err := l.ReadAt(fd, int64(len(out)), out[len(out):cap(out)])
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return out, nil
		}
		out = out[:len(out)+n]
	}
}

// Seek sets the descriptor offset (whence: 0=set only; kept minimal).
func (l *LFS) Seek(fd FD, off int64) error {
	e, err := l.lookupFD(fd)
	if err != nil {
		return err
	}
	if off < 0 {
		return fs.ErrInvalid
	}
	e.offMu.Lock()
	e.offset = off
	e.offMu.Unlock()
	return nil
}

// Stat returns the attributes of the file behind fd.
func (l *LFS) Stat(fd FD) (fs.Attr, error) {
	e, err := l.lookupFD(fd)
	if err != nil {
		return fs.Attr{}, err
	}
	return l.fsys.FsGetattr(e.node)
}

// Remove, Rename and Readdir forward the path-based calls.
func (l *LFS) Remove(cred fs.Cred, name string) error {
	return l.fsys.FsRemove(cred, name)
}

// Rename forwards the rename call to the mounted file system.
func (l *LFS) Rename(cred fs.Cred, oldName, newName string) error {
	return l.fsys.FsRename(cred, oldName, newName)
}

// Readdir lists directory entries.
func (l *LFS) Readdir(cred fs.Cred, name string) ([]string, error) {
	return l.fsys.FsReaddir(cred, name)
}

// OpenCount reports how many descriptors are currently open (leak checks).
func (l *LFS) OpenCount() int {
	n := 0
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		n += len(sh.table)
		sh.mu.Unlock()
	}
	return n
}

// Passthrough adapts a physical fs.FS directly to the FileSystem interface
// with no interposition: the "native file system" baseline of §3.2 and the
// layer below DLFS.
type Passthrough struct {
	Phys *fs.FS
}

// NewPassthrough wraps a physical file system.
func NewPassthrough(phys *fs.FS) *Passthrough { return &Passthrough{Phys: phys} }

var _ FileSystem = (*Passthrough)(nil)

// FsLookup resolves the name on the physical file system.
func (p *Passthrough) FsLookup(cred fs.Cred, name string) (Node, error) {
	return p.Phys.Lookup(name)
}

// FsOpen performs the physical permission check.
func (p *Passthrough) FsOpen(cred fs.Cred, node Node, mode fs.AccessMode) (OpenFile, error) {
	ino := node.(*fs.Inode)
	if err := p.Phys.OpenCheck(ino, cred, mode); err != nil {
		return nil, err
	}
	return struct{}{}, nil
}

// FsClose is a no-op for the native file system.
func (p *Passthrough) FsClose(cred fs.Cred, node Node, of OpenFile) error { return nil }

// FsRead reads through to the physical file.
func (p *Passthrough) FsRead(node Node, of OpenFile, off int64, buf []byte) (int, error) {
	return p.Phys.ReadAt(node.(*fs.Inode), off, buf)
}

// FsWrite writes through to the physical file.
func (p *Passthrough) FsWrite(node Node, of OpenFile, off int64, buf []byte) (int, error) {
	return p.Phys.WriteAt(node.(*fs.Inode), off, buf)
}

// FsRemove unlinks on the physical file system.
func (p *Passthrough) FsRemove(cred fs.Cred, name string) error {
	return p.Phys.Remove(name, cred)
}

// FsRename renames on the physical file system.
func (p *Passthrough) FsRename(cred fs.Cred, oldName, newName string) error {
	return p.Phys.Rename(oldName, newName, cred)
}

// FsGetattr stats the physical inode.
func (p *Passthrough) FsGetattr(node Node) (fs.Attr, error) {
	return p.Phys.Getattr(node.(*fs.Inode))
}

// FsCreate creates a physical file.
func (p *Passthrough) FsCreate(cred fs.Cred, name string, mode fs.FileMode) (Node, error) {
	return p.Phys.Create(name, cred, mode)
}

// FsLockctl locks or unlocks the physical inode.
func (p *Passthrough) FsLockctl(node Node, owner string, op fs.LockOp, block bool) error {
	if block {
		return p.Phys.Lockctl(node.(*fs.Inode), owner, op)
	}
	return p.Phys.TryLockctl(node.(*fs.Inode), owner, op)
}

// FsReaddir lists a physical directory.
func (p *Passthrough) FsReaddir(cred fs.Cred, name string) ([]string, error) {
	return p.Phys.ReadDir(name)
}
