// Package datalinks is a from-scratch reproduction of the system described
// in "Database Managed External File Update" (Mittal & Hsiao, ICDE 2001):
// IBM's DataLinks technology extended with database-managed in-place update
// of external files.
//
// A System bundles a host relational database (with the DATALINK column
// type), the DataLinks engine, and one or more file servers, each running a
// DataLinks File Manager (DLFM) over a physical file system with a DataLinks
// File System (DLFS) interposed. Files in a file system are put under
// database control by inserting their URL into a DATALINK column ("linking")
// and released by deleting it ("unlinking"); both run as sub-transactions of
// the SQL transaction.
//
// Control modes (Table 1 of the paper, plus the two update modes the paper
// contributes):
//
//	nff  reference only, file unmanaged
//	rff  referential integrity (no remove/rename of the linked file)
//	rfb  + writes blocked
//	rdb  + reads require a database-issued token
//	rfd  reads free, writes database-managed (in-place update transactions)
//	rdd  reads token-gated AND writes database-managed
//
// In rfd/rdd modes an application updates a file in place through the
// ordinary file API: it selects DLURLCOMPLETEWRITE(col) to get a URL with an
// embedded write token, opens it, writes, and closes. Open is begin
// transaction, close is commit: the file's size and modification time are
// written back to the database in the same transaction, a new version is
// archived, and an abort (or crash) restores the last committed version.
//
// Quick start:
//
//	sys, _ := datalinks.Open(datalinks.Config{Servers: []datalinks.ServerConfig{{Name: "fs1"}}})
//	defer sys.Close()
//	fsrv, _ := sys.FileServer("fs1")
//	fsrv.SeedFile("/pages/index.html", []byte("<html>v1</html>"), 100)
//	sys.Exec(`CREATE TABLE pages (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES, doc_size INT)`)
//	sys.Exec(`INSERT INTO pages VALUES (1, DLVALUE('dlfs://fs1/pages/index.html'), NULL)`)
//	url, _ := sys.QueryString(`SELECT DLURLCOMPLETEWRITE(doc) FROM pages WHERE id = 1`)
//	f, _ := sys.Session(100).OpenWrite(url)
//	f.WriteAll([]byte("<html>v2</html>"))
//	f.Close() // commit: metadata updated, version archived
package datalinks

import (
	"fmt"
	"time"

	"datalinks/internal/core"
	"datalinks/internal/datalink"
	"datalinks/internal/dlfm"
	"datalinks/internal/fs"
	"datalinks/internal/sqlmini"
)

// ServerConfig configures one file server of a System.
type ServerConfig = core.ServerConfig

// Config configures a System.
type Config = core.Config

// System is a running DataLinks deployment.
type System struct {
	core *core.System
}

// Open builds a System.
func Open(cfg Config) (*System, error) {
	c, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	return &System{core: c}, nil
}

// Close shuts the system down, draining background archive jobs.
func (s *System) Close() { s.core.Close() }

// Internal exposes the underlying core system for advanced use (experiment
// harnesses, admin tools). The core API is internal and may change.
func (s *System) Internal() *core.System { return s.core }

// toValue converts a Go value to a SQL value.
func toValue(arg any) (sqlmini.Value, error) {
	switch v := arg.(type) {
	case nil:
		return sqlmini.Null(), nil
	case int:
		return sqlmini.Int(int64(v)), nil
	case int32:
		return sqlmini.Int(int64(v)), nil
	case int64:
		return sqlmini.Int(v), nil
	case float64:
		return sqlmini.Float(v), nil
	case string:
		return sqlmini.Str(v), nil
	case bool:
		return sqlmini.Bool(v), nil
	case time.Time:
		return sqlmini.Time(v), nil
	case Link:
		return sqlmini.Link(datalink.Link{Server: v.Server, Path: v.Path}), nil
	default:
		return sqlmini.Value{}, fmt.Errorf("datalinks: unsupported argument type %T", arg)
	}
}

// fromValue converts a SQL value to a Go value.
func fromValue(v sqlmini.Value) any {
	switch v.Kind() {
	case sqlmini.KindNull:
		return nil
	case sqlmini.KindInt:
		return v.I
	case sqlmini.KindFloat:
		return v.F
	case sqlmini.KindString:
		return v.S
	case sqlmini.KindBool:
		return v.B
	case sqlmini.KindTime:
		return v.T
	case sqlmini.KindLink:
		return Link{Server: v.L.Server, Path: v.L.Path}
	default:
		return v.String()
	}
}

func toValues(args []any) ([]sqlmini.Value, error) {
	vals := make([]sqlmini.Value, len(args))
	for i, a := range args {
		v, err := toValue(a)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

// Rows is a query result.
type Rows struct {
	Cols []string
	Data [][]any
}

// Exec runs a DDL/DML statement with ?-placeholders, returning affected rows.
func (s *System) Exec(sql string, args ...any) (int, error) {
	vals, err := toValues(args)
	if err != nil {
		return 0, err
	}
	return s.core.DB.Exec(sql, vals...)
}

// MustExec is Exec that panics on error (setup code, examples).
func (s *System) MustExec(sql string, args ...any) int {
	n, err := s.Exec(sql, args...)
	if err != nil {
		panic(err)
	}
	return n
}

// Query runs a SELECT with ?-placeholders.
func (s *System) Query(sql string, args ...any) (*Rows, error) {
	vals, err := toValues(args)
	if err != nil {
		return nil, err
	}
	rows, err := s.core.DB.Query(sql, vals...)
	if err != nil {
		return nil, err
	}
	out := &Rows{Cols: rows.Cols}
	for _, r := range rows.Data {
		converted := make([]any, len(r))
		for i, v := range r {
			converted[i] = fromValue(v)
		}
		out.Data = append(out.Data, converted)
	}
	return out, nil
}

// QueryString runs a SELECT expected to return one string value — the
// common shape for fetching tokenized URLs via DLURLCOMPLETE[WRITE].
func (s *System) QueryString(sql string, args ...any) (string, error) {
	rows, err := s.Query(sql, args...)
	if err != nil {
		return "", err
	}
	if len(rows.Data) != 1 || len(rows.Data[0]) != 1 {
		return "", fmt.Errorf("datalinks: expected one value, got %dx%d", len(rows.Data), len(rows.Cols))
	}
	str, ok := rows.Data[0][0].(string)
	if !ok {
		return "", fmt.Errorf("datalinks: value is %T, not string", rows.Data[0][0])
	}
	return str, nil
}

// Link is a DATALINK value: a reference to an external file.
type Link struct {
	Server string
	Path   string
}

// URL renders the link as a DATALINK URL.
func (l Link) URL() string { return datalink.Link{Server: l.Server, Path: l.Path}.URL() }

// StateID returns the host database state identifier (advances with every
// commit; archived file versions are tagged with it).
func (s *System) StateID() uint64 { return s.core.Engine.StateID() }

// RestoreToState rewinds the database to a past state identifier and
// restores every recovery-enabled linked file to the matching version —
// the coordinated point-in-time restore of §4.4.
func (s *System) RestoreToState(stateID uint64) error {
	if err := s.core.Engine.RestoreToState(stateID); err != nil {
		return err
	}
	s.core.DB = s.core.Engine.DB()
	return nil
}

// CrashAndRecoverServer simulates a crash and restart of one file server:
// in-flight updates roll back to their last committed versions, in-doubt
// sub-transactions resolve against the host database.
func (s *System) CrashAndRecoverServer(name string) (*dlfm.RecoveryReport, error) {
	return s.core.CrashAndRecoverServer(name)
}

// RecoverHost simulates a crash and restart of the host database machine.
func (s *System) RecoverHost() error { return s.core.RecoverHost() }

// Crash simulates a whole-process kill: all volatile state is dropped with
// no clean shutdown. Only the durable directories (RepoDir, ArchiveDir)
// survive; a later Open over the same directories cold-starts from them.
func (s *System) Crash() { s.core.Crash() }

// Recovery returns the cold-start recovery report of this file server, or
// nil if it started fresh (no prior durable repository state).
func (f *FileServer) Recovery() *dlfm.RecoveryReport { return f.inner.Recovery }

// Session returns an application identity with the given uid.
func (s *System) Session(uid int32) *Session {
	return &Session{inner: s.core.NewSession(fs.UID(uid))}
}

// Session is an application identity; files are opened through it with the
// standard file-system API semantics.
type Session struct {
	inner *core.Session
}

// OpenRead opens a linked file for reading. Pass the URL returned by
// DLURLCOMPLETE — it carries the read token when the mode requires one.
func (s *Session) OpenRead(url string) (*File, error) {
	f, err := s.inner.OpenRead(url)
	if err != nil {
		return nil, err
	}
	return &File{inner: f}, nil
}

// OpenWrite begins an in-place update transaction. Pass the URL returned by
// DLURLCOMPLETEWRITE.
func (s *Session) OpenWrite(url string) (*File, error) {
	f, err := s.inner.OpenWrite(url)
	if err != nil {
		return nil, err
	}
	return &File{inner: f}, nil
}

// BeginUserTxn groups several file updates under one user transaction.
func (s *Session) BeginUserTxn() *UserTxn {
	return &UserTxn{inner: s.inner.BeginUserTxn()}
}

// File is an open linked file. For write opens, Close commits the update
// transaction and Abort rolls it back to the last committed version.
type File struct {
	inner *core.File
}

// Read reads from the current offset; 0 bytes with nil error is EOF.
func (f *File) Read(p []byte) (int, error) { return f.inner.Read(p) }

// ReadAll reads the entire file.
func (f *File) ReadAll() ([]byte, error) { return f.inner.ReadAll() }

// Write writes at the current offset.
func (f *File) Write(p []byte) (int, error) { return f.inner.Write(p) }

// WriteAt writes at an absolute offset.
func (f *File) WriteAt(off int64, p []byte) (int, error) { return f.inner.WriteAt(off, p) }

// ReadAt reads at an absolute offset without moving the file offset.
func (f *File) ReadAt(off int64, p []byte) (int, error) { return f.inner.ReadAt(off, p) }

// WriteAll replaces the whole file content.
func (f *File) WriteAll(p []byte) error { return f.inner.WriteAll(p) }

// Truncate sets the file length.
func (f *File) Truncate(size int64) error { return f.inner.Truncate(size) }

// Size returns the current file size.
func (f *File) Size() (int64, error) {
	attr, err := f.inner.Stat()
	if err != nil {
		return 0, err
	}
	return attr.Size, nil
}

// Close ends the access; for write opens this commits the update.
func (f *File) Close() error { return f.inner.Close() }

// Abort rolls an in-place update back to the last committed version.
func (f *File) Abort() error { return f.inner.Abort() }

// UserTxn is a multi-file update transaction (§3.1's nested transactions).
type UserTxn struct {
	inner *core.UserTxn
}

// OpenWrite begins a file-update sub-transaction.
func (u *UserTxn) OpenWrite(url string) (*File, error) {
	f, err := u.inner.OpenWrite(url)
	if err != nil {
		return nil, err
	}
	return &File{inner: f}, nil
}

// Commit commits every sub-transaction in order.
func (u *UserTxn) Commit() error { return u.inner.Commit() }

// Abort rolls back every in-flight sub-transaction.
func (u *UserTxn) Abort() error { return u.inner.Abort() }

// RegisterContentHook derives user-metadata columns from file content on
// every committed update of files linked through (table, column): the
// returned column values are written in the same transaction as the
// automatic size/mtime update. This extends §4.3 of the paper to
// content-specific attributes — an item the paper lists as future research.
func (s *System) RegisterContentHook(table, column string, hook func(content []byte) map[string]any) {
	s.core.Engine.RegisterContentHook(table, column, func(content []byte) map[string]sqlmini.Value {
		out := make(map[string]sqlmini.Value)
		for col, v := range hook(content) {
			val, err := toValue(v)
			if err != nil {
				continue // unsupported type: skip the column
			}
			out[col] = val
		}
		return out
	})
}

// FileServer is an administrative handle on one file server.
type FileServer struct {
	inner *core.FileServer
}

// FileServer returns the named server's handle.
func (s *System) FileServer(name string) (*FileServer, error) {
	srv, err := s.core.Server(name)
	if err != nil {
		return nil, err
	}
	return &FileServer{inner: srv}, nil
}

// SeedFile creates (or replaces) a file owned by the given uid — setup
// convenience for populating a file server before linking.
func (f *FileServer) SeedFile(path string, content []byte, owner int32) error {
	dir := path
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			dir = path[:i]
			break
		}
	}
	if dir != "" {
		if err := f.inner.Phys.MkdirAll(dir, fs.Cred{UID: fs.Root}, 0o777); err != nil {
			return err
		}
	}
	if err := f.inner.Phys.WriteFile(path, content); err != nil {
		return err
	}
	ino, err := f.inner.Phys.Lookup(path)
	if err != nil {
		return err
	}
	if err := f.inner.Phys.Chown(ino, fs.Cred{UID: fs.Root}, fs.UID(owner)); err != nil {
		return err
	}
	return f.inner.Phys.Chmod(ino, fs.Cred{UID: fs.UID(owner)}, 0o644)
}

// ReadFile reads a file's content directly (administrative access).
func (f *FileServer) ReadFile(path string) ([]byte, error) {
	return f.inner.Phys.ReadFile(path)
}

// ListDir lists a directory.
func (f *FileServer) ListDir(path string) ([]string, error) {
	return f.inner.Phys.ReadDir(path)
}

// LinkedFiles lists the paths currently linked on this server.
func (f *FileServer) LinkedFiles() []string { return f.inner.DLFM.LinkedFiles() }

// UpcallCount reports the total DLFS-to-DLFM upcalls so far.
func (f *FileServer) UpcallCount() int64 { return f.inner.Transport.Calls() }

// WaitArchives blocks until in-flight archive jobs complete. Archiving after
// a committed update is asynchronous (§4.4); call this before inspecting
// Versions in tests or scripts.
func (f *FileServer) WaitArchives() { f.inner.DLFM.WaitArchives() }

// Versions lists the archived version numbers of a linked file.
func (f *FileServer) Versions(path string) []int64 {
	var out []int64
	for _, e := range f.inner.Archive.Versions(f.inner.Name, path) {
		out = append(out, int64(e.Version))
	}
	return out
}

// Internal exposes the core file server (experiment harnesses).
func (f *FileServer) Internal() *core.FileServer { return f.inner }
