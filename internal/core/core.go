// Package core assembles the paper's system and packages its primary
// contribution — database-managed in-place update of external files — behind
// a small API: a System wiring the host database, DataLinks engine, and any
// number of file servers (DLFM + DLFS + physical FS + archive), and Sessions
// through which applications read and update linked files with transactional
// semantics (open = begin, close = commit, §3.1/§4.2).
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"datalinks/internal/archive"
	"datalinks/internal/datalink"
	"datalinks/internal/dlfm"
	"datalinks/internal/dlfs"
	"datalinks/internal/engine"
	"datalinks/internal/fs"
	"datalinks/internal/fsyncer"
	"datalinks/internal/metrics"
	"datalinks/internal/obs"
	"datalinks/internal/sqlmini"
	"datalinks/internal/token"
	"datalinks/internal/upcall"
	"datalinks/internal/vfs"
)

// ServerConfig configures one file server of a System. It is the public
// datalinks.ServerConfig (a type alias).
type ServerConfig struct {
	// Name is the file server name used in DATALINK URLs (dlfs://name/...).
	Name string
	// UpcallLatency simulates the DLFS↔DLFM IPC cost per upcall (0 =
	// in-process direct).
	UpcallLatency time.Duration
	// UpcallWidth bounds concurrent DLFS→DLFM upcalls on this server (0 =
	// unbounded). The bound encloses UpcallLatency, so it models a finite
	// IPC channel — per-server capacity that scale-out experiments divide
	// work across.
	UpcallWidth int
	// Strict enables the §4.5 strict-link-check extension on this server: an
	// upcall on every open, closing the link-while-open window at a per-open
	// cost.
	Strict bool
	// OpenWait bounds how long opens wait for conflicting opens (the DLFM
	// open-approval wait); a write open lasts until its close has archived.
	OpenWait time.Duration
	// TCPUpcalls routes DLFS→DLFM upcalls over a real TCP loopback
	// connection (internal/upcall's fixed binary envelope), matching the
	// kernel/daemon process split of Figure 1, instead of direct in-process
	// calls.
	TCPUpcalls bool
	// UpcallNet tunes the TCP upcall plane: client retry/backoff/deadlines/
	// breaker and server backpressure limits and drain, plus an optional
	// Chaos fault injector (nil: production defaults). A Chaos injector
	// needs TCPUpcalls: it faults the wire, and in-process calls have none.
	UpcallNet *upcall.NetConfig
	// ArchiveDir is the archive's directory: committed versions' chunks
	// persist to packfiles there beside the version catalog, and the
	// archive keeps none of them in memory. Empty gives the archive a
	// private temporary directory, removed when the server closes or
	// crashes.
	ArchiveDir string
	// ArchiveMemoryBudget bounds the member's committed chunks in memory,
	// in bytes (<= 0: 64 MiB): once the linked files' resident chunks
	// (fs.resident_bytes) pass it, the file system pages clean chunks —
	// archived at a close and not written since — out, to load back from
	// the archive on their next read. Chunks an open update wrote stay in
	// memory until its close, on top of the budget.
	ArchiveMemoryBudget int64
	// ArchiveFsync selects the archive tier's durability policy: "" or
	// "none" (rely on the OS flushing — fastest, a power loss can lose the
	// newest commits' archive copies), "group" (commits are acknowledged
	// only after an fdatasync, but concurrent committers share flushes —
	// group commit), or "always" (every append flushes inline).
	ArchiveFsync string
	// QuarantineTTL expires quarantined in-flight versions older than this
	// when SweepQuarantine runs (0: keep forever).
	QuarantineTTL time.Duration
	// RepoDir is the repository's directory: the file server's metadata
	// database logs to CRC-framed WAL segments there and periodically
	// snapshots itself to repo.snap, so a fresh Open over the same directory
	// (plus ArchiveDir) cold-starts the server after a whole-process kill.
	// Empty gives the repository a private temporary directory, removed when
	// the server closes or crashes.
	RepoDir string
	// RepoFsync selects the repository WAL durability policy: "" or "none"
	// (rely on the OS page cache), "group" (coalesced fdatasyncs), or
	// "always" (every flush syncs inline).
	RepoFsync string
	// Trace enables request-scoped tracing on this server: every top-level
	// operation (open, read, write, commit/close, link/unlink, migration
	// move) records a span tree into a bounded per-server ring, stitched
	// across the upcall wire when TCPUpcalls is set.
	Trace bool
	// TraceCapacity bounds the ring of retained completed traces (<= 0: the
	// obs default of 512).
	TraceCapacity int
	// SlowOpThreshold emits any traced operation whose root exceeds it as a
	// one-line JSON slow_op event (span tree included) to SlowOpLog. Setting
	// it implies tracing even when Trace is false.
	SlowOpThreshold time.Duration
	// SlowOpLog receives slow_op events (nil discards them).
	SlowOpLog io.Writer
}

// Config configures a System. It is the public datalinks.Config (a type
// alias).
type Config struct {
	Servers []ServerConfig
	// Clock injects a time source (tests); nil means time.Now.
	Clock func() time.Time
	// TokenKey is the shared secret between engine and DLFMs.
	TokenKey []byte
	// TokenTTL is the default access-token lifetime.
	TokenTTL time.Duration
	// LockTimeout bounds database lock waits (deadlock resolution).
	LockTimeout time.Duration
}

// FileServer bundles one file server's stack.
type FileServer struct {
	Name      string
	Phys      *fs.FS
	Archive   *archive.Store
	DLFM      *dlfm.Server
	DLFS      *dlfs.DLFS
	LFS       *vfs.LFS // applications' mount (through DLFS)
	NativeLFS *vfs.LFS // bypass mount (native-FS baseline measurements)
	Transport *upcall.Transport
	// Obs is the server's tracer (nil unless Trace or SlowOpThreshold is
	// configured). Both the session side and the daemon side of this server
	// record into it, so one commit's spans land in one trace.
	Obs *obs.Tracer
	// Recovery is non-nil when opening a durable repository directory ran
	// cold-start recovery instead of a fresh boot.
	Recovery *dlfm.RecoveryReport
	cfg      ServerConfig
	// repoDir is the repository's directory: cfg.RepoDir, or a private one
	// buildStack made, which the stack removes once the DLFM is closed or
	// killed.
	repoDir string

	// TCP deployment resources (nil for in-process upcalls).
	tcpServer *upcall.Server
	tcpClient *upcall.Client
}

// UpcallServer exposes the TCP upcall server (nil for in-process upcalls).
// Experiments use it to drain the daemon gracefully and read its
// backpressure counters.
func (f *FileServer) UpcallServer() *upcall.Server { return f.tcpServer }

// UpcallClient exposes the resilient TCP upcall client (nil for in-process
// upcalls). Experiments use it for the retry/giveup/breaker counters.
func (f *FileServer) UpcallClient() *upcall.Client { return f.tcpClient }

// rootCred is the superuser, for administrative file system calls.
var rootCred = fs.Cred{UID: fs.Root}

// SeedFile creates (or replaces) an unlinked file owned by uid with mode
// 0644, making its parent directory first when the path has one — setup for
// populating a file server before linking.
func (f *FileServer) SeedFile(path string, content []byte, uid fs.UID) error {
	if i := strings.LastIndexByte(path, '/'); i > 0 {
		if err := f.Phys.MkdirAll(path[:i], rootCred, 0o777); err != nil {
			return err
		}
	}
	if err := f.Phys.WriteFile(path, content); err != nil {
		return err
	}
	ino, err := f.Phys.Lookup(path)
	if err != nil {
		return err
	}
	if err := f.Phys.Chown(ino, rootCred, uid); err != nil {
		return err
	}
	return f.Phys.Chmod(ino, fs.Cred{UID: uid}, 0o644)
}

// System is a running DataLinks deployment.
type System struct {
	Engine  *engine.Engine
	clock   func() time.Time
	key     []byte
	ttl     time.Duration
	mu      sync.Mutex
	servers map[string]*FileServer
}

// DB returns the host database the engine currently serves (a restore or a
// host recovery replaces it).
func (sys *System) DB() *sqlmini.DB { return sys.Engine.DB() }

// NewSystem builds and wires a complete deployment.
func NewSystem(cfg Config) (*System, error) {
	if len(cfg.Servers) == 0 {
		cfg.Servers = []ServerConfig{{Name: "fs1"}}
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if len(cfg.TokenKey) == 0 {
		cfg.TokenKey = []byte("datalinks-shared-secret")
	}
	eng, err := engine.Open(sqlmini.Options{Clock: cfg.Clock, LockTimeout: cfg.LockTimeout, Metrics: metrics.NewRegistry()})
	if err != nil {
		return nil, err
	}
	sys := &System{
		Engine:  eng,
		clock:   cfg.Clock,
		key:     cfg.TokenKey,
		ttl:     cfg.TokenTTL,
		servers: make(map[string]*FileServer),
	}
	for _, sc := range cfg.Servers {
		if _, err := sys.addServer(sc); err != nil {
			sys.Close()
			return nil, err
		}
	}
	return sys, nil
}

// addServer constructs one file server stack and attaches it to the engine.
func (sys *System) addServer(sc ServerConfig) (*FileServer, error) {
	fsrv, err := buildStack(sc, sc.Name, sys.clock, sys.key, sys.ttl, sys.Engine)
	if err != nil {
		return nil, err
	}
	sys.mu.Lock()
	sys.servers[sc.Name] = fsrv
	sys.mu.Unlock()
	sys.Engine.AttachFileServer(fsrv.DLFM, sys.key, sys.ttl)
	return fsrv, nil
}

// buildStack constructs one file server stack: physical FS, archive tier,
// DLFM over its repository directory, and the DLFS upcall plane.
// dlfmName is the name the DLFM registers under — a System passes the
// server's own name, a Cluster passes the shared authority so DATALINK URLs,
// archive keys, and host metadata stay identical across members.
func buildStack(sc ServerConfig, dlfmName string, clock func() time.Time, key []byte, ttl time.Duration, host dlfm.Host) (*FileServer, error) {
	if sc.UpcallNet != nil && sc.UpcallNet.Client.Chaos != nil && !sc.TCPUpcalls {
		return nil, fmt.Errorf("core: server %s: a Chaos injector needs TCPUpcalls", sc.Name)
	}
	phys := fs.NewWithClock(clock)
	fsyncPolicy, err := fsyncer.ParsePolicy(sc.ArchiveFsync)
	if err != nil {
		return nil, fmt.Errorf("core: server %s: %w", sc.Name, err)
	}
	// One registry per server, shared between DLFM and the archive tier so
	// the fsync/pack counters surface next to the upcall/archive ones.
	reg := metrics.NewRegistry()
	var tracer *obs.Tracer
	if sc.Trace || sc.SlowOpThreshold > 0 {
		var slowLog *obs.Logger
		if sc.SlowOpLog != nil {
			slowLog = obs.NewLogger(sc.SlowOpLog, obs.LevelDebug)
		}
		tracer = obs.New(obs.Config{
			Capacity:        sc.TraceCapacity,
			SlowOpThreshold: sc.SlowOpThreshold,
			Log:             slowLog,
		})
	}
	arch, err := archive.NewTiered(0, clock, archive.TierConfig{
		Dir:     sc.ArchiveDir,
		Fsync:   fsyncPolicy,
		Metrics: reg,
	})
	if err != nil {
		return nil, err
	}
	// One budget bounds the member's resident committed chunks, all of
	// which the file system holds: it pages clean chunks out past it.
	budget := sc.ArchiveMemoryBudget
	if budget <= 0 {
		budget = 64 << 20
	}
	phys.SetMemoryBudget(budget, reg)
	fsrv := &FileServer{
		Name:      sc.Name,
		Phys:      phys,
		Archive:   arch,
		NativeLFS: vfs.NewLFS(vfs.NewPassthrough(phys)),
		Obs:       tracer,
		cfg:       sc,
		repoDir:   sc.RepoDir,
	}
	if sc.RepoDir == "" {
		if fsrv.repoDir, err = os.MkdirTemp("", "datalinks-repo-*"); err != nil {
			arch.Close()
			return nil, fmt.Errorf("core: server %s: %w", sc.Name, err)
		}
	}
	if err := fsrv.openDLFM(dlfmName, host, key, ttl, clock, reg); err != nil {
		arch.Close()
		fsrv.removePrivateRepo()
		return nil, err
	}
	if err := wireUpcallPlane(fsrv, fsrv.DLFM, sc); err != nil {
		return nil, errors.Join(err, closeStack(fsrv))
	}
	return fsrv, nil
}

// openDLFM opens the stack's DLFM over its repository directory, for a
// fresh boot and for a crash recovery over the surviving disk alike: it is
// the one place a stack's ServerConfig becomes a dlfm.Config. name is the
// name the DLFM registers under; reg is the registry it shares with the
// archive tier (nil: its own).
func (f *FileServer) openDLFM(name string, host dlfm.Host, key []byte, ttl time.Duration, clock func() time.Time, reg *metrics.Registry) error {
	repoFsync, err := fsyncer.ParsePolicy(f.cfg.RepoFsync)
	if err != nil {
		return fmt.Errorf("core: server %s: %w", f.Name, err)
	}
	f.DLFM, f.Recovery, err = dlfm.Open(dlfm.Config{
		Name:          name,
		Phys:          f.Phys,
		Archive:       f.Archive,
		Host:          host,
		TokenKey:      key,
		Clock:         clock,
		OpenWait:      f.cfg.OpenWait,
		TokenTTL:      ttl,
		QuarantineTTL: f.cfg.QuarantineTTL,
		Metrics:       reg,
		RepoDir:       f.repoDir,
		RepoFsync:     repoFsync,
		Tracer:        f.Obs,
	})
	return err
}

// wireUpcallPlane attaches the DLFS↔DLFM upcall channel to a file server:
// direct in-process calls by default, or the hardened TCP plane (framed
// protocol, pooled client with retry/backoff/deadlines/breaker, bounded
// server with graceful drain) when the config asks for the daemon
// deployment. One registry is shared by the client, the server, and the
// measuring transport so the resilience counters surface together.
func wireUpcallPlane(fsrv *FileServer, srv *dlfm.Server, sc ServerConfig) error {
	upReg := metrics.NewRegistry()
	var netCfg upcall.NetConfig
	if sc.UpcallNet != nil {
		netCfg = *sc.UpcallNet
	}
	var svc upcall.Service = srv
	if sc.TCPUpcalls {
		if netCfg.Server.Metrics == nil {
			netCfg.Server.Metrics = upReg
		}
		if netCfg.Server.Tracer == nil {
			// Adopt inbound trace contexts into the same ring the session
			// side records into, stitching client and daemon spans.
			netCfg.Server.Tracer = fsrv.Obs
		}
		if netCfg.Client.Metrics == nil {
			netCfg.Client.Metrics = upReg
		}
		tcpServer, addr, err := upcall.ServeConfig(srv, "127.0.0.1:0", netCfg.Server)
		if err != nil {
			return fmt.Errorf("core: upcall server: %w", err)
		}
		client, err := upcall.DialConfig(addr, netCfg.Client)
		if err != nil {
			tcpServer.Close()
			return fmt.Errorf("core: upcall dial: %w", err)
		}
		fsrv.tcpServer = tcpServer
		fsrv.tcpClient = client
		svc = client
	}
	transport := upcall.NewInProcWidth(svc, sc.UpcallLatency, sc.UpcallWidth, upReg)
	mount := dlfs.New(dlfs.Config{
		Phys:    fsrv.Phys,
		Upcall:  transport,
		DLFMUid: srv.UID(),
		Strict:  sc.Strict,
	})
	fsrv.DLFS = mount
	fsrv.LFS = vfs.NewLFS(mount)
	fsrv.Transport = transport
	return nil
}

// Server returns a file server by name.
func (sys *System) Server(name string) (*FileServer, error) {
	sys.mu.Lock()
	defer sys.mu.Unlock()
	s, ok := sys.servers[name]
	if !ok {
		return nil, fmt.Errorf("core: no file server %q", name)
	}
	return s, nil
}

// ServerNames lists the file servers.
func (sys *System) ServerNames() []string {
	sys.mu.Lock()
	defer sys.mu.Unlock()
	out := make([]string, 0, len(sys.servers))
	for n := range sys.servers {
		out = append(out, n)
	}
	return out
}

// Close shuts down background work on every server, then the host
// database. The error joins every server's failure to close its repository
// log and the host's to remove its log directory.
func (sys *System) Close() error {
	sys.mu.Lock()
	defer sys.mu.Unlock()
	var errs []error
	for _, s := range sys.servers {
		errs = append(errs, closeStack(s))
	}
	return errors.Join(append(errs, sys.Engine.Close())...)
}

// Crash simulates a whole-process kill (kill -9 of the deployment): every
// file server's volatile state is dropped on the floor — no final
// checkpoint, no archive drain, no clean WAL close. Only what the durable
// planes already wrote (repository WAL segments + snapshot under RepoDir,
// archive chunks + catalog under ArchiveDir) survives for a later NewSystem
// over the same directories to cold-start from. The RAM-backed physical file
// systems and the host database die with the process.
func (sys *System) Crash() {
	sys.mu.Lock()
	defer sys.mu.Unlock()
	for _, s := range sys.servers {
		killStack(s)
	}
	sys.servers = make(map[string]*FileServer)
	sys.Engine.Close()
}

// CrashAndRecoverServer simulates a crash of one file server machine and
// runs DLFM restart recovery (§4.2/§4.4): the DLFM is killed and opened
// again over the same repository directory, in-flight updates roll back to
// the last committed version, in-doubt sub-transactions resolve against the
// host, and a version whose archive put failed at its close is archived from
// the live file under its commit's state id.
func (sys *System) CrashAndRecoverServer(name string) (*dlfm.RecoveryReport, error) {
	sys.mu.Lock()
	old, ok := sys.servers[name]
	sys.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: no file server %q", name)
	}
	old.DLFM.Kill()
	// The crash also kills the daemon's TCP endpoints.
	old.closeEndpoints()
	// The disk (the repository directory with it), the archive, the ring of
	// past traces and the member's registry survive the crash: the archive
	// tier and the file system keep counting in the registry they were given.
	fresh := &FileServer{
		Name:      name,
		Phys:      old.Phys,
		Archive:   old.Archive,
		NativeLFS: old.NativeLFS,
		Obs:       old.Obs,
		cfg:       old.cfg,
		repoDir:   old.repoDir,
	}
	if err := fresh.openDLFM(name, sys.Engine, sys.key, sys.ttl, sys.clock, old.DLFM.Metrics()); err != nil {
		return nil, fmt.Errorf("core: recover server %s: %w", name, err)
	}
	if err := wireUpcallPlane(fresh, fresh.DLFM, old.cfg); err != nil {
		return nil, err
	}
	sys.mu.Lock()
	sys.servers[name] = fresh
	sys.mu.Unlock()
	sys.Engine.AttachFileServer(fresh.DLFM, sys.key, sys.ttl)
	return fresh.Recovery, nil
}

// RecoverHost crashes and recovers the host database; DB serves the rebuilt
// instance afterwards.
func (sys *System) RecoverHost() error { return sys.Engine.RecoverHost() }

// Session is an application identity working against a deployment; files are
// opened through it with the standard file-system API semantics. A System and
// a Cluster hand out the same Session: they differ only in how a URL picks the
// member that serves it.
type Session struct {
	r    resolver
	cred fs.Cred
}

// resolver picks the member that serves a URL's authority and clean path.
type resolver interface {
	resolve(server, path string) (*FileServer, error)
}

// NewSession returns a session with the given uid.
func (sys *System) NewSession(uid fs.UID) *Session {
	return &Session{r: sys, cred: fs.Cred{UID: uid}}
}

// resolve serves a URL from the file server its authority names.
func (sys *System) resolve(server, _ string) (*FileServer, error) { return sys.Server(server) }

// Cred returns the session's credentials.
func (s *Session) Cred() fs.Cred { return s.cred }

// errAborted marks a file handle whose update was explicitly aborted.
var errAborted = errors.New("core: update aborted")

// File is an open linked file. For write opens, the open..close window is a
// file-update transaction: Close commits, Abort rolls back to the last
// committed version.
type File struct {
	srv     *FileServer
	path    string
	fd      vfs.FD
	write   bool
	aborted bool
}

// SplitURL decomposes a (possibly token-carrying) DATALINK URL into server,
// path and the name to hand to the file system API (path plus token).
func SplitURL(url string) (server, fsName string, err error) {
	clean, tok, hasTok := token.Extract(url)
	l, err := datalink.Parse(clean)
	if err != nil {
		return "", "", err
	}
	name := l.Path
	if hasTok {
		name = token.Embed(l.Path, tok)
	}
	return l.Server, name, nil
}

// open opens a URL through the DataLinks file system of the member the
// resolver picks. If a migration lands between resolving and the open (the
// open reaches a member the path just left), the open retries once against
// the new owner — the same URL, the same token, a different member. (A
// System's member changes only when CrashAndRecoverServer replaced it.) When
// the second resolution names the same member, the first error was real.
func (s *Session) open(url string, mode fs.AccessMode) (*File, error) {
	server, name, err := SplitURL(url)
	if err != nil {
		return nil, err
	}
	cleanPath, _, _ := token.Extract(name)
	var lastErr error
	var last *FileServer
	for attempt := 0; attempt < 2; attempt++ {
		m, err := s.r.resolve(server, cleanPath)
		if err != nil {
			return nil, err
		}
		if m == last {
			return nil, lastErr
		}
		tr := m.Obs.Start("open")
		root := tr.Root()
		root.SetAttr("path", cleanPath)
		root.SetAttr("server", m.Name)
		if attempt > 0 {
			// The first member rejected the open because the path moved away
			// mid-flight; this attempt followed the ring forward.
			root.SetAttr("ring_forwarded", true)
		}
		fd, err := m.LFS.OpenCtx(obs.ContextWithSpan(context.Background(), root), s.cred, name, mode)
		if err != nil {
			root.SetAttr("error", err.Error())
		}
		tr.Finish()
		if err == nil {
			return &File{srv: m, path: cleanPath, fd: fd, write: mode&fs.AccessWrite != 0}, nil
		}
		lastErr, last = err, m
	}
	return nil, lastErr
}

// OpenRead opens a linked file for reading. Pass the URL returned by
// DLURLCOMPLETE — it carries the read token when the mode requires one.
func (s *Session) OpenRead(url string) (*File, error) { return s.open(url, fs.AccessRead) }

// OpenWrite begins an in-place update transaction on a linked file. Pass the
// URL returned by DLURLCOMPLETEWRITE — it carries the write token.
func (s *Session) OpenWrite(url string) (*File, error) { return s.open(url, fs.ReadWrite) }

// trace records one data-plane operation as a single-span trace (these ops
// never upcall, so the trace is flat). The returned func finishes it.
func (f *File) trace(op string) func(err error) {
	if !f.srv.Obs.Enabled() {
		return func(error) {}
	}
	tr := f.srv.Obs.Start(op)
	tr.Root().SetAttr("path", f.path)
	return func(err error) {
		if err != nil {
			tr.Root().SetAttr("error", err.Error())
		}
		tr.Finish()
	}
}

// Read reads from the current offset; 0 bytes with nil error is EOF.
func (f *File) Read(p []byte) (int, error) {
	done := f.trace("read")
	n, err := f.srv.LFS.Read(f.fd, p)
	done(err)
	return n, err
}

// ReadAll reads the whole file.
func (f *File) ReadAll() ([]byte, error) {
	done := f.trace("read")
	b, err := f.srv.LFS.ReadAll(f.fd)
	done(err)
	return b, err
}

// Write writes at the current offset.
func (f *File) Write(p []byte) (int, error) {
	done := f.trace("write")
	n, err := f.srv.LFS.Write(f.fd, p)
	done(err)
	return n, err
}

// WriteAt writes at an absolute offset.
func (f *File) WriteAt(off int64, p []byte) (int, error) {
	done := f.trace("write")
	n, err := f.srv.LFS.WriteAt(f.fd, off, p)
	done(err)
	return n, err
}

// ReadAt reads at an absolute offset without moving the file offset.
func (f *File) ReadAt(off int64, p []byte) (int, error) {
	done := f.trace("read")
	n, err := f.srv.LFS.ReadAt(f.fd, off, p)
	done(err)
	return n, err
}

// Truncate sets the file length, like ftruncate(2) on the open write
// descriptor (write permission was established at open).
func (f *File) Truncate(size int64) error {
	if !f.write {
		return fs.ErrPermission
	}
	ino, err := f.srv.Phys.Lookup(f.path)
	if err != nil {
		return err
	}
	return f.srv.Phys.Truncate(ino, size)
}

// Stat returns the file's attributes.
func (f *File) Stat() (fs.Attr, error) { return f.srv.LFS.Stat(f.fd) }

// Size returns the current file size.
func (f *File) Size() (int64, error) {
	attr, err := f.Stat()
	return attr.Size, err
}

// SeekTo repositions the descriptor to an absolute offset.
func (f *File) SeekTo(off int64) error { return f.srv.LFS.Seek(f.fd, off) }

// Path returns the server-relative path of the file.
func (f *File) Path() string { return f.path }

// Close ends the access. For a write open this commits the file-update
// transaction: metadata updates in the host database, a new version is
// archived, the file returns to its at-rest protection (§4.2–4.4).
func (f *File) Close() error {
	if f.aborted {
		// The update was rolled back; releasing the descriptor will fail its
		// close upcall (the open is gone at DLFM) — expected.
		_ = f.srv.LFS.Close(f.fd)
		return nil
	}
	op := "close"
	if f.write {
		op = "commit" // a write close commits the file-update transaction
	}
	tr := f.srv.Obs.Start(op)
	root := tr.Root()
	root.SetAttr("path", f.path)
	err := f.srv.LFS.CloseCtx(obs.ContextWithSpan(context.Background(), root), f.fd)
	if err != nil {
		root.SetAttr("error", err.Error())
	}
	tr.Finish()
	return err
}

// Abort rolls the in-place update back: the last committed version is
// restored from the archive and the in-flight content is quarantined (§4.2).
func (f *File) Abort() error {
	if !f.write {
		return errors.New("core: Abort on a read open")
	}
	if f.aborted {
		return errAborted
	}
	if err := f.srv.DLFM.AbortUpdateByPath(f.path); err != nil {
		return err
	}
	f.aborted = true
	_ = f.srv.LFS.Close(f.fd) // descriptor cleanup; upcall failure expected
	return nil
}

// WriteAll replaces the whole content of the file.
func (f *File) WriteAll(p []byte) error {
	if _, err := f.WriteAt(0, p); err != nil {
		return err
	}
	attr, err := f.Stat()
	if err != nil {
		return err
	}
	if attr.Size > int64(len(p)) {
		return f.Truncate(int64(len(p)))
	}
	return nil
}

// UserTxn is a multi-file update transaction: several file updates run as
// sub-transactions of one logical user transaction (§3.1's nested-transaction
// sketch). Commit closes the files in order; the first failure aborts every
// remaining in-flight update. It works the same against a System and a
// Cluster, whose members may each own some of its files.
type UserTxn struct {
	sess  *Session
	files []*File
	done  bool
}

// BeginUserTxn starts a multi-file update transaction.
func (s *Session) BeginUserTxn() *UserTxn { return &UserTxn{sess: s} }

// OpenWrite begins a file-update sub-transaction under this user transaction.
func (u *UserTxn) OpenWrite(url string) (*File, error) {
	if u.done {
		return nil, errors.New("core: user transaction finished")
	}
	f, err := u.sess.OpenWrite(url)
	if err != nil {
		return nil, err
	}
	u.files = append(u.files, f)
	return f, nil
}

// Commit commits every sub-transaction in open order. On the first failure
// the remaining in-flight updates are rolled back and an error reporting
// both committed and aborted paths is returned.
func (u *UserTxn) Commit() error {
	if u.done {
		return errors.New("core: user transaction finished")
	}
	u.done = true
	var committed []string
	for i, f := range u.files {
		if err := f.Close(); err != nil {
			var abortedPaths []string
			for _, rest := range u.files[i+1:] {
				if aerr := rest.Abort(); aerr == nil {
					abortedPaths = append(abortedPaths, rest.path)
				}
			}
			return fmt.Errorf("core: user transaction failed at %s (%w); committed=[%s] aborted=[%s]",
				f.path, err, strings.Join(committed, ","), strings.Join(abortedPaths, ","))
		}
		committed = append(committed, f.path)
	}
	return nil
}

// Abort rolls back every in-flight sub-transaction.
func (u *UserTxn) Abort() error {
	if u.done {
		return errors.New("core: user transaction finished")
	}
	u.done = true
	var firstErr error
	for _, f := range u.files {
		if err := f.Abort(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Metrics aggregates the registries of every component (status tooling).
func (sys *System) Metrics() map[string]*metrics.Registry {
	sys.mu.Lock()
	defer sys.mu.Unlock()
	out := map[string]*metrics.Registry{"engine": sys.Engine.Metrics()}
	for n, s := range sys.servers {
		out["dlfm:"+n] = s.DLFM.Metrics()
		out["dlfs:"+n] = s.DLFS.Metrics()
		out["upcall:"+n] = s.Transport.Metrics()
	}
	return out
}
