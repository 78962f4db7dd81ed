// Package dlfs implements the DataLinks File System of §2.3 and §4: a
// virtual-file-system layer interposed between the logical file system and
// the physical file system. It intercepts fs_lookup, fs_open, fs_close,
// fs_remove and fs_rename, coordinating with the DLFM upcall daemon to
// enforce database-managed access control, update transactions, and
// referential integrity, while leaving fs_read/fs_write untouched — the
// design decision behind DataLinks' low overhead (§3.2).
//
// The performance-critical properties of the paper are reproduced exactly:
//
//   - Reads of files NOT under full database control make no upcalls at all:
//     DLFS decides by examining file ownership (§4, "optimization").
//   - Writes to rfd files take the lazy path: the native open fails first
//     (the file was made read-only at link time), and only then does DLFS
//     upcall, let DLFM take the file over, and retry with system
//     credentials (§4.2).
//   - fs_read/fs_write are pure pass-through.
//
// One stated deviation from §4.1: the paper validates an access token at
// fs_lookup and checks the resulting token entry at fs_open, because a kernel
// VFS shows the name — where the token is embedded — to lookup and never to
// open. This DLFS allocates its own vnode per lookup, so the token travels on
// the node and rides the open upcall itself: a token open is one exchange
// with DLFM (plus the close), not a validate followed by an open.
package dlfs

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"datalinks/internal/fs"
	"datalinks/internal/metrics"
	"datalinks/internal/token"
	"datalinks/internal/upcall"
	"datalinks/internal/vfs"
)

// Config configures a DLFS mount.
type Config struct {
	Phys *fs.FS
	// Upcall reaches the DLFM upcall daemon of this file server.
	Upcall upcall.Service
	// DLFMUid is the uid DLFM runs as; ownership by this uid marks a file
	// as being under full database control (or taken over for update).
	DLFMUid fs.UID
	// Strict enables the future-work extension of §4.5: an upcall on every
	// open, closing the link-while-open window of inconsistency at the cost
	// of upcalls on previously free paths.
	Strict  bool
	Metrics *metrics.Registry
}

// DLFS is the interposing file system. It implements vfs.FileSystem.
type DLFS struct {
	cfg Config
	ctr dlfsCounters
}

// dlfsCounters caches the hot-path counters so open/lookup traffic does a
// single atomic add instead of a registry lookup per operation.
type dlfsCounters struct {
	tokenValidated   *metrics.Counter
	tokenRejected    *metrics.Counter
	openReadNative   *metrics.Counter
	openNative       *metrics.Counter
	openNativeStrict *metrics.Counter
	openWriteLazy    *metrics.Counter
	openWriteManaged *metrics.Counter
	openReadManaged  *metrics.Counter
	abandonFailed    *metrics.Counter
	removeRejected   *metrics.Counter
	renameRejected   *metrics.Counter
}

// New builds a DLFS over a physical file system and an upcall transport.
func New(cfg Config) *DLFS {
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	return &DLFS{
		cfg: cfg,
		ctr: dlfsCounters{
			tokenValidated:   cfg.Metrics.Counter("dlfs.token.validated"),
			tokenRejected:    cfg.Metrics.Counter("dlfs.token.rejected"),
			openReadNative:   cfg.Metrics.Counter("dlfs.open.read.native"),
			openNative:       cfg.Metrics.Counter("dlfs.open.native"),
			openNativeStrict: cfg.Metrics.Counter("dlfs.open.native.strict"),
			openWriteLazy:    cfg.Metrics.Counter("dlfs.open.write.lazy_upcall"),
			openWriteManaged: cfg.Metrics.Counter("dlfs.open.write.managed"),
			openReadManaged:  cfg.Metrics.Counter("dlfs.open.read.managed"),
			abandonFailed:    cfg.Metrics.Counter("dlfs.open.abandon_failed"),
			removeRejected:   cfg.Metrics.Counter("dlfs.remove.rejected"),
			renameRejected:   cfg.Metrics.Counter("dlfs.rename.rejected"),
		},
	}
}

var _ vfs.FileSystem = (*DLFS)(nil)

// node is DLFS's vnode: the physical inode plus the private data DLFS keeps
// (the paper's challenge is that *per-file DataLinks state* cannot live
// here — it lives at DLFM — but standard vnode identity can).
type node struct {
	ino  *fs.Inode
	path string // clean path, token stripped
	tok  string // the token the name carried, "" if none; presented at open
}

// openFile is the per-open private data.
type openFile struct {
	openID  uint64 // DLFM correlation id; 0 for native opens
	managed bool   // true when DLFM approved this open (close must upcall)
	write   bool
	// owner names the fs_lockctl exclusive lock this open holds (rfd
	// writes); "" when it holds none.
	owner string
}

// lockOwner names the lockctl owner for a managed write open.
func lockOwner(id uint64) string {
	var buf [32]byte
	return string(strconv.AppendUint(append(buf[:0], "dlfs-upd-"...), id, 10))
}

// mapCode translates a DLFM rejection into a file system error.
func mapCode(resp upcall.Response) error {
	switch resp.Code {
	case upcall.CodePermission, upcall.CodeBadToken:
		return fmt.Errorf("%w: %s", fs.ErrPermission, resp.Err)
	case upcall.CodeBusy:
		return fmt.Errorf("%w: %s", fs.ErrLocked, resp.Err)
	case upcall.CodeIntegrity:
		return fmt.Errorf("%w: %s", fs.ErrPermission, resp.Err)
	case upcall.CodeNotLinked:
		return fmt.Errorf("%w: %s", fs.ErrPermission, resp.Err)
	default:
		return fmt.Errorf("dlfs: upcall rejected: %s", resp.Err)
	}
}

// FsLookup resolves a name. An embedded access token is stripped and kept on
// the node; it is presented to DLFM by the open, not here — lookup makes no
// upcall.
func (d *DLFS) FsLookup(_ context.Context, _ fs.Cred, name string) (vfs.Node, error) {
	path, tok, _ := token.Extract(name)
	ino, err := d.cfg.Phys.Lookup(path)
	if err != nil {
		return nil, err
	}
	return &node{ino: ino, path: path, tok: tok}, nil
}

// countToken records DLFM's verdict on a token presented with a request: a
// CodeBadToken answer rejected it; any other answer came after it was
// admitted.
func (d *DLFS) countToken(n *node, resp upcall.Response) {
	switch {
	case n.tok == "":
	case resp.Code == upcall.CodeBadToken:
		d.ctr.tokenRejected.Inc()
	default:
		d.ctr.tokenValidated.Inc()
	}
}

// validateToken presents the node's token, if it carries one, on behalf of an
// open that never reaches DLFM, so an invalid token fails the open on every
// path — and a valid one still leaves its token entry behind (§4.1).
func (d *DLFS) validateToken(ctx context.Context, cred fs.Cred, n *node) error {
	if n.tok == "" {
		return nil
	}
	resp, err := upcall.Call(ctx, d.cfg.Upcall, upcall.Request{
		Op:    upcall.OpValidateToken,
		Path:  n.path,
		Token: n.tok,
		UID:   int32(cred.UID),
	})
	if err != nil {
		return fmt.Errorf("dlfs: upcall daemon unreachable: %w", err)
	}
	d.countToken(n, resp)
	if !resp.OK {
		return mapCode(resp)
	}
	return nil
}

// FsOpen enforces the control-mode semantics of Table 1 at open time,
// carrying the request context into the upcalls.
func (d *DLFS) FsOpen(ctx context.Context, cred fs.Cred, vn vfs.Node, mode fs.AccessMode) (vfs.OpenFile, error) {
	n, ok := vn.(*node)
	if !ok {
		return nil, fs.ErrInvalid
	}
	attr, err := d.cfg.Phys.Getattr(n.ino)
	if err != nil {
		return nil, err
	}
	if attr.Type == fs.TypeDir {
		// Directories are never linked; pass through.
		if err := d.cfg.Phys.OpenCheck(n.ino, cred, mode); err != nil {
			return nil, err
		}
		if err := d.validateToken(ctx, cred, n); err != nil {
			return nil, err
		}
		return &openFile{}, nil
	}
	write := mode&fs.AccessWrite != 0
	dlfmOwned := attr.UID == d.cfg.DLFMUid

	switch {
	case dlfmOwned:
		// Full database control (rdb/rdd) — or an rfd file currently taken
		// over for update. Every open goes through DLFM.
		return d.managedOpen(ctx, cred, n, write)
	case write:
		// Try the native open first (§4.2's lazy write path).
		err := d.cfg.Phys.OpenCheck(n.ino, cred, mode)
		if err == nil {
			return d.nativeOpen(ctx, cred, n, write)
		}
		if !errors.Is(err, fs.ErrPermission) {
			return nil, err
		}
		// Read-only at the FS level: either an rfd/rfb linked file or a
		// genuinely read-only file. Ask DLFM.
		d.ctr.openWriteLazy.Inc()
		of, uerr := d.managedOpen(ctx, cred, n, write)
		if uerr == nil {
			return of, nil
		}
		var nl notLinkedError
		if errors.As(uerr, &nl) {
			// Not managed by the database after all: surface the original
			// permission error unchanged.
			return nil, err
		}
		return nil, uerr
	default:
		// Read of a file not under full control: zero upcalls (unless the
		// strict extension is on).
		if err := d.cfg.Phys.OpenCheck(n.ino, cred, mode); err != nil {
			return nil, err
		}
		d.ctr.openReadNative.Inc()
		return d.nativeOpen(ctx, cred, n, false)
	}
}

// notLinkedError lets managedOpen's callers detect the "file is not linked"
// rejection so the lazy write path can fall back to the native error.
type notLinkedError struct{ msg string }

func (e notLinkedError) Error() string { return e.msg }

// nativeOpen completes an open the physical file system already authorized.
// With the strict extension on, the open is still registered with DLFM so
// link processing can detect open files (§4.5 future work).
func (d *DLFS) nativeOpen(ctx context.Context, cred fs.Cred, n *node, write bool) (vfs.OpenFile, error) {
	if !d.cfg.Strict {
		if err := d.validateToken(ctx, cred, n); err != nil {
			return nil, err
		}
		d.ctr.openNative.Inc()
		return &openFile{write: write}, nil
	}
	resp, err := upcall.Call(ctx, d.cfg.Upcall, upcall.Request{
		Op:     upcall.OpReadOpen,
		Path:   n.path,
		Token:  n.tok,
		UID:    int32(cred.UID),
		Strict: true,
	})
	if err != nil {
		return nil, fmt.Errorf("dlfs: upcall daemon unreachable: %w", err)
	}
	d.countToken(n, resp)
	if !resp.OK {
		return nil, mapCode(resp)
	}
	d.ctr.openNativeStrict.Inc()
	return &openFile{openID: resp.OpenID, managed: true, write: write}, nil
}

// managedOpen runs the upcall-approved open protocol. The node's token rides
// the open request: DLFM admits it and takes the open under one call.
func (d *DLFS) managedOpen(ctx context.Context, cred fs.Cred, n *node, write bool) (vfs.OpenFile, error) {
	op := upcall.OpReadOpen
	if write {
		op = upcall.OpWriteOpen
	}
	resp, err := upcall.Call(ctx, d.cfg.Upcall, upcall.Request{
		Op:    op,
		Path:  n.path,
		Token: n.tok,
		UID:   int32(cred.UID),
		Write: write,
	})
	if err != nil {
		return nil, fmt.Errorf("dlfs: upcall daemon unreachable: %w", err)
	}
	d.countToken(n, resp)
	if !resp.OK {
		if resp.Code == upcall.CodeNotLinked {
			return nil, notLinkedError{msg: resp.Err}
		}
		return nil, mapCode(resp)
	}
	of := &openFile{openID: resp.OpenID, managed: true, write: write}
	// DLFM approved: perform the physical open with system credentials
	// (DLFS is the kernel; the database, not the FS, did the access check).
	sysCred := fs.Cred{UID: fs.Root}
	checkMode := fs.AccessRead
	if write {
		checkMode = fs.ReadWrite
	}
	if resp.TakeOver || write {
		if err := d.cfg.Phys.OpenCheck(n.ino, sysCred, checkMode); err != nil {
			d.abandonOpen(ctx, n, of)
			return nil, err
		}
	} else {
		if err := d.cfg.Phys.OpenCheck(n.ino, cred, checkMode); err != nil {
			d.abandonOpen(ctx, n, of)
			return nil, err
		}
	}
	if write {
		// Explicit file locking through fs_lockctl for the update window
		// (§4.2). DLFM's serialization makes contention rare, but the lock
		// is the mechanism the paper names for rfd write serialization.
		owner := lockOwner(of.openID)
		if err := d.cfg.Phys.Lockctl(n.ino, owner, fs.LockExclusive); err != nil {
			d.abandonOpen(ctx, n, of)
			return nil, err
		}
		of.owner = owner
		d.ctr.openWriteManaged.Inc()
	} else {
		d.ctr.openReadManaged.Inc()
	}
	return of, nil
}

// abandonOpen tells DLFM an approved open never completed. A close that
// fails or is refused leaves the DLFM-side open — for a write, the takeover
// and the durable update entry — in place until restart; the caller still
// sees the error that abandoned the open, and the leak is counted.
func (d *DLFS) abandonOpen(ctx context.Context, n *node, of *openFile) {
	attr, err := d.cfg.Phys.Getattr(n.ino)
	if err != nil {
		d.ctr.abandonFailed.Inc()
		return
	}
	resp, err := upcall.Call(ctx, d.cfg.Upcall, upcall.Request{
		Op:     upcall.OpClose,
		OpenID: of.openID,
		Size:   attr.Size,
		Mtime:  attr.Mtime.UnixNano(),
	})
	if err != nil || !resp.OK {
		d.ctr.abandonFailed.Inc()
	}
}

// FsClose ends the open. For managed opens this is the end-transaction
// upcall: DLFM commits the file-update transaction (write opens) or purges
// the Sync read entry (read opens). A failed close means the update rolled
// back, and the application sees the error — exactly §4.2. The request
// context rides the end-transaction upcall.
func (d *DLFS) FsClose(ctx context.Context, cred fs.Cred, vn vfs.Node, ofi vfs.OpenFile) error {
	n, ok := vn.(*node)
	if !ok {
		return fs.ErrInvalid
	}
	of, ok := ofi.(*openFile)
	if !ok || !of.managed {
		return nil
	}
	attr, err := d.cfg.Phys.Getattr(n.ino)
	if err != nil {
		return err
	}
	resp, err := upcall.Call(ctx, d.cfg.Upcall, upcall.Request{
		Op:     upcall.OpClose,
		OpenID: of.openID,
		Size:   attr.Size,
		Mtime:  attr.Mtime.UnixNano(),
	})
	if of.owner != "" {
		_ = d.cfg.Phys.TryLockctl(n.ino, of.owner, fs.LockUnlock)
		of.owner = ""
	}
	if err != nil {
		return fmt.Errorf("dlfs: close upcall: %w", err)
	}
	if !resp.OK {
		return mapCode(resp)
	}
	return nil
}

// FsRead passes straight through to the physical file system (§3.2).
func (d *DLFS) FsRead(vn vfs.Node, _ vfs.OpenFile, off int64, p []byte) (int, error) {
	n, ok := vn.(*node)
	if !ok {
		return 0, fs.ErrInvalid
	}
	return d.cfg.Phys.ReadAt(n.ino, off, p)
}

// FsWrite passes straight through to the physical file system (§3.2).
func (d *DLFS) FsWrite(vn vfs.Node, _ vfs.OpenFile, off int64, p []byte) (int, error) {
	n, ok := vn.(*node)
	if !ok {
		return 0, fs.ErrInvalid
	}
	return d.cfg.Phys.WriteAt(n.ino, off, p)
}

// FsRemove rejects unlinking database-linked files (referential integrity,
// §2.3) and otherwise passes through.
func (d *DLFS) FsRemove(cred fs.Cred, name string) error {
	path, _, _ := token.Extract(name)
	resp, err := d.cfg.Upcall.Upcall(upcall.Request{Op: upcall.OpCheckRemove, Path: path, UID: int32(cred.UID)})
	if err != nil {
		return fmt.Errorf("dlfs: upcall daemon unreachable: %w", err)
	}
	if !resp.OK {
		d.ctr.removeRejected.Inc()
		return mapCode(resp)
	}
	return d.cfg.Phys.Remove(path, cred)
}

// FsRename rejects renaming database-linked files and otherwise passes
// through.
func (d *DLFS) FsRename(cred fs.Cred, oldName, newName string) error {
	oldPath, _, _ := token.Extract(oldName)
	newPath, _, _ := token.Extract(newName)
	resp, err := d.cfg.Upcall.Upcall(upcall.Request{
		Op:      upcall.OpCheckRename,
		Path:    oldPath,
		NewPath: newPath,
		UID:     int32(cred.UID),
	})
	if err != nil {
		return fmt.Errorf("dlfs: upcall daemon unreachable: %w", err)
	}
	if !resp.OK {
		d.ctr.renameRejected.Inc()
		return mapCode(resp)
	}
	return d.cfg.Phys.Rename(oldPath, newPath, cred)
}

// FsGetattr stats the node.
func (d *DLFS) FsGetattr(vn vfs.Node) (fs.Attr, error) {
	n, ok := vn.(*node)
	if !ok {
		return fs.Attr{}, fs.ErrInvalid
	}
	return d.cfg.Phys.Getattr(n.ino)
}

// FsCreate makes a new (unlinked) file.
func (d *DLFS) FsCreate(cred fs.Cred, name string, mode fs.FileMode) (vfs.Node, error) {
	path, _, _ := token.Extract(name)
	ino, err := d.cfg.Phys.Create(path, cred, mode)
	if err != nil {
		return nil, err
	}
	return &node{ino: ino, path: path}, nil
}

// FsLockctl passes advisory locking through.
func (d *DLFS) FsLockctl(vn vfs.Node, owner string, op fs.LockOp, block bool) error {
	n, ok := vn.(*node)
	if !ok {
		return fs.ErrInvalid
	}
	if block {
		return d.cfg.Phys.Lockctl(n.ino, owner, op)
	}
	return d.cfg.Phys.TryLockctl(n.ino, owner, op)
}

// FsReaddir lists a directory.
func (d *DLFS) FsReaddir(cred fs.Cred, name string) ([]string, error) {
	return d.cfg.Phys.ReadDir(name)
}

// Metrics exposes DLFS-side counters.
func (d *DLFS) Metrics() *metrics.Registry { return d.cfg.Metrics }
