// Package engine implements the DataLinks engine of Figure 1: the extension
// inside the host RDBMS that turns DATALINK column changes into DLFM
// link/unlink sub-transactions (two-phase commit, §2.2), generates access
// tokens when DATALINK values are selected (§4.1), applies the automatic
// metadata update of a committed file update (§4.3), and coordinates backup
// and point-in-time restore with the file servers (§4.4).
package engine

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"datalinks/internal/datalink"
	"datalinks/internal/dlfm"
	"datalinks/internal/fsyncer"
	"datalinks/internal/metrics"
	"datalinks/internal/sqlmini"
	"datalinks/internal/token"
	"datalinks/internal/wal"
)

// Conn is the engine's connection to one file-server authority. For a single
// DLFM it is a thin agent wrapper; for a scale-out cluster it is a router that
// resolves the path to a member behind the authority name. Link and Unlink
// return the XRM the host transaction must enlist — returning it from the same
// call that performed the link pins the sub-transaction to whichever member
// actually processed it, so a concurrent ring change between "link" and
// "enlist" cannot split the two across different servers.
type Conn interface {
	Link(hostTxn uint64, path string, opts datalink.ColumnOptions) (sqlmini.XRM, error)
	Unlink(hostTxn uint64, path string) (sqlmini.XRM, error)
	// ReadFileContent returns a linked file's current content (content hooks).
	ReadFileContent(path string) ([]byte, error)
	// Restore brings the authority's files to a coordinated restore's
	// target (§4.4): the host state id, and the link set (path -> column
	// options) the restored database references.
	Restore(stateID uint64, links map[string]datalink.ColumnOptions) error
}

// agentConn adapts the classic one-DLFM agent to Conn.
type agentConn struct {
	agent *dlfm.Agent
}

func (a agentConn) Link(hostTxn uint64, path string, opts datalink.ColumnOptions) (sqlmini.XRM, error) {
	if err := a.agent.LinkFile(hostTxn, path, opts); err != nil {
		return nil, err
	}
	return a.agent.Server(), nil
}

func (a agentConn) Unlink(hostTxn uint64, path string) (sqlmini.XRM, error) {
	if err := a.agent.UnlinkFile(hostTxn, path); err != nil {
		return nil, err
	}
	return a.agent.Server(), nil
}

func (a agentConn) ReadFileContent(path string) ([]byte, error) {
	return a.agent.Server().ReadFileContent(path)
}

func (a agentConn) Restore(stateID uint64, links map[string]datalink.ColumnOptions) error {
	return a.agent.Server().Restore(stateID, links)
}

// serverConn pairs a Conn with the token authority for its shared key.
type serverConn struct {
	conn Conn
	auth *token.Authority
}

// registration records a linked file the engine knows about: which table and
// column reference it and the column options it was linked under. The
// registry backs token issuing and the metadata write-back.
type registration struct {
	table string
	col   string
	opts  datalink.ColumnOptions
}

// Engine is the DataLinks engine bound to one host database.
type Engine struct {
	db    *sqlmini.DB
	clock func() time.Time
	reg   *metrics.Registry
	// tokens counts issued tokens by type: engine.tokens.r, .w and .x.
	tokens [token.Execute + 1]*metrics.Counter

	mu       sync.Mutex
	servers  map[string]*serverConn
	registry map[string]registration // key: server + "\x00" + path
	// contentHooks derive user metadata column values from file content at
	// update-commit time, keyed by lowercase "table.column". This implements
	// the §4.3 future-work item (automatic update of content-specific
	// attributes) as an opt-in extension.
	contentHooks map[string]ContentHook
}

// ContentHook computes content-derived column values for the row(s)
// referencing an updated file. The returned map is column-name -> value;
// named columns must exist in the linking table.
type ContentHook func(content []byte) map[string]sqlmini.Value

// Open starts a DataLinks engine over a fresh host database and installs
// the DML hook and the token-issuing scalar functions. opts configures the
// database's Clock, LockTimeout and Metrics; its log is the engine's own,
// in a private directory that Close removes. The host database never
// checkpoints, so that log keeps, in its segment files, the whole history
// RestoreToState rebuilds past states from.
func Open(opts sqlmini.Options) (*Engine, error) {
	if opts.Log != nil || opts.Dir != "" || opts.CheckpointBytes != 0 {
		return nil, errors.New("engine: the host database's log and checkpoints are the engine's own")
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.NewRegistry()
	}
	var err error
	if opts.Log, err = openHostLog(); err != nil {
		return nil, err
	}
	e := &Engine{
		db:           sqlmini.NewDB(opts),
		clock:        opts.Clock,
		reg:          opts.Metrics,
		servers:      make(map[string]*serverConn),
		registry:     make(map[string]registration),
		contentHooks: make(map[string]ContentHook),
	}
	for typ := token.Read; typ <= token.Execute; typ++ {
		e.tokens[typ] = e.reg.Counter("engine.tokens." + typ.String())
	}
	e.attach(e.db)
	return e, nil
}

// openHostLog opens an empty host database log in a fresh private
// directory. Nothing in it outlives the process, so it is never fsynced.
func openHostLog() (*wal.Log, error) {
	dir, err := os.MkdirTemp("", "datalinks-host-*")
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	lg, err := wal.Open(wal.Config{Dir: dir, Fsync: fsyncer.PolicyNone})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("engine: %w", err)
	}
	return lg, nil
}

// discardHostLog drops a host database log and removes its directory.
func discardHostLog(lg *wal.Log) error {
	lg.Kill()
	return os.RemoveAll(lg.Dir())
}

// Close ends the host database: its log is dropped and its directory
// removed. Closing a closed engine is a no-op.
func (e *Engine) Close() error {
	return discardHostLog(e.DB().Log())
}

// DB returns the host database.
func (e *Engine) DB() *sqlmini.DB { return e.db }

// Metrics returns the engine's metrics registry.
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// AttachFileServer connects the engine to a DLFM. tokenKey must equal the
// DLFM's configured key (the shared secret of §4.1).
func (e *Engine) AttachFileServer(srv *dlfm.Server, tokenKey []byte, ttl time.Duration) {
	e.AttachConn(srv.Name(), agentConn{agent: srv.ConnectAgent()}, tokenKey, ttl)
}

// AttachConn connects the engine to a file-server authority through an
// arbitrary Conn — the scale-out cluster attaches its router here under the
// cluster authority name, so DATALINK URLs stay dlfs://<authority>/... no
// matter how many members serve them.
func (e *Engine) AttachConn(name string, c Conn, tokenKey []byte, ttl time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.servers[name] = &serverConn{
		conn: c,
		auth: token.NewAuthority(tokenKey, e.clock, ttl),
	}
}

// ServerNames lists attached file servers (status tooling).
func (e *Engine) ServerNames() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.servers))
	for n := range e.servers {
		out = append(out, n)
	}
	return out
}

// conn returns the connection for a file server.
func (e *Engine) conn(server string) (*serverConn, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	c, ok := e.servers[server]
	if !ok {
		return nil, fmt.Errorf("engine: no file server %q attached", server)
	}
	return c, nil
}

func regKey(server, path string) string { return server + "\x00" + path }

// lookupReg finds the registration for a linked file. The key regKey would
// make is built on the stack: a map index by string(bytes) makes no string.
func (e *Engine) lookupReg(server, path string) (registration, bool) {
	var buf [128]byte
	key := append(append(append(buf[:0], server...), 0), path...)
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.registry[string(key)]
	return r, ok
}

// dmlHook observes row changes and drives link/unlink processing.
func (e *Engine) dmlHook(txn *sqlmini.Txn, tbl *sqlmini.Table, op sqlmini.DMLOp, old, new sqlmini.Row) error {
	for i, col := range tbl.Columns {
		if col.Kind != sqlmini.KindLink {
			continue
		}
		var oldLink, newLink datalink.Link
		if old != nil {
			oldLink, _ = old[i].AsLink()
		}
		if new != nil {
			newLink, _ = new[i].AsLink()
		}
		switch op {
		case sqlmini.DMLInsert:
			if !newLink.IsZero() {
				if err := e.link(txn, tbl, col, newLink); err != nil {
					return err
				}
			}
		case sqlmini.DMLDelete:
			if !oldLink.IsZero() {
				if err := e.unlink(txn, oldLink, col); err != nil {
					return err
				}
			}
		case sqlmini.DMLUpdate:
			if oldLink == newLink {
				continue
			}
			if !oldLink.IsZero() {
				if err := e.unlink(txn, oldLink, col); err != nil {
					return err
				}
			}
			if !newLink.IsZero() {
				if err := e.link(txn, tbl, col, newLink); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// link runs DLFM link processing inside the host transaction.
func (e *Engine) link(txn *sqlmini.Txn, tbl *sqlmini.Table, col sqlmini.Column, l datalink.Link) error {
	if !col.DL.Mode.Linked() {
		// nff: the URL is stored, the file is not managed at all.
		return nil
	}
	c, err := e.conn(l.Server)
	if err != nil {
		return err
	}
	xrm, err := c.conn.Link(txn.ID(), l.Path, col.DL)
	if err != nil {
		return fmt.Errorf("engine: link %s: %w", l.URL(), err)
	}
	txn.Enlist(xrm)
	e.reg.Counter("engine.links").Inc()
	reg := registration{table: tbl.Name, col: col.Name, opts: col.DL}
	key := regKey(l.Server, l.Path)
	txn.OnCommit(func() {
		e.mu.Lock()
		e.registry[key] = reg
		e.mu.Unlock()
	})
	return nil
}

// unlink runs DLFM unlink processing inside the host transaction.
func (e *Engine) unlink(txn *sqlmini.Txn, l datalink.Link, col sqlmini.Column) error {
	if !col.DL.Mode.Linked() {
		return nil
	}
	c, err := e.conn(l.Server)
	if err != nil {
		return err
	}
	xrm, err := c.conn.Unlink(txn.ID(), l.Path)
	if err != nil {
		return fmt.Errorf("engine: unlink %s: %w", l.URL(), err)
	}
	txn.Enlist(xrm)
	e.reg.Counter("engine.unlinks").Inc()
	key := regKey(l.Server, l.Path)
	txn.OnCommit(func() {
		e.mu.Lock()
		delete(e.registry, key)
		e.mu.Unlock()
	})
	return nil
}

// ---- Token issuing (§4.1) ----

// attach installs the engine on a host database: the DML hook, and the
// DLURLCOMPLETE and DLURLCOMPLETEWRITE functions, which return the URL with a
// freshly issued read/write token embedded.
func (e *Engine) attach(db *sqlmini.DB) {
	db.SetDMLHook(e.dmlHook)
	db.RegisterFn("DLURLCOMPLETE", func(_ *sqlmini.Txn, args []sqlmini.Value) (sqlmini.Value, error) {
		return e.completeURL(args, token.Read)
	})
	db.RegisterFn("DLURLCOMPLETEWRITE", func(_ *sqlmini.Txn, args []sqlmini.Value) (sqlmini.Value, error) {
		return e.completeURL(args, token.Write)
	})
}

// completeURL returns the link's URL with a token appended after token.Sep
// when the access needs one, built in one buffer: the string is the one
// allocation.
func (e *Engine) completeURL(args []sqlmini.Value, typ token.Type) (sqlmini.Value, error) {
	if len(args) != 1 || args[0].Kind() != sqlmini.KindLink {
		return sqlmini.Value{}, errors.New("DLURLCOMPLETE takes one DATALINK argument")
	}
	l, _ := args[0].AsLink()
	var buf [256]byte
	b := append(buf[:0], datalink.Scheme+"://"...)
	b = append(b, l.Server...)
	b = append(b, l.Path...)
	url := len(b)
	b, err := e.appendToken(append(b, token.Sep...), l, typ)
	if err != nil {
		return sqlmini.Value{}, err
	}
	if len(b) == url+len(token.Sep) {
		b = b[:url] // no token needed
	}
	return sqlmini.Str(string(b)), nil
}

// IssueToken issues an access token for a linked file. Returns "" (no token
// needed) for files whose requested access is file-system controlled.
func (e *Engine) IssueToken(l datalink.Link, typ token.Type) (string, error) {
	var buf [128]byte
	tok, err := e.appendToken(buf[:0], l, typ)
	if err != nil || len(tok) == 0 {
		return "", err
	}
	return string(tok), nil
}

// appendToken appends the token IssueToken issues to dst, and nothing when
// the access needs none.
func (e *Engine) appendToken(dst []byte, l datalink.Link, typ token.Type) ([]byte, error) {
	if typ < token.Read || typ > token.Execute {
		return nil, fmt.Errorf("engine: unknown token type %s", typ)
	}
	reg, linked := e.lookupReg(l.Server, l.Path)
	if !linked {
		// Unlinked (nff or foreign) reference: no token to issue.
		return dst, nil
	}
	c, err := e.conn(l.Server)
	if err != nil {
		return nil, err
	}
	mode := reg.opts.Mode
	switch typ {
	case token.Read:
		if !mode.ReadNeedsToken() {
			return dst, nil // reads are FS-controlled; no token needed
		}
	case token.Write:
		if !mode.UpdateManaged() {
			return nil, fmt.Errorf("engine: %s is linked in %s mode: no write tokens", l.URL(), mode)
		}
	}
	e.tokens[typ].Inc()
	ttl := c.auth.TTL()
	if reg.opts.TokenTTLSecs > 0 {
		ttl = time.Duration(reg.opts.TokenTTLSecs) * time.Second
	}
	return c.auth.AppendIssue(dst, typ, l.Path, ttl), nil
}

// LinkedMode reports the control mode a file is linked under, per the
// engine's registry.
func (e *Engine) LinkedMode(l datalink.Link) (datalink.ControlMode, bool) {
	reg, ok := e.lookupReg(l.Server, l.Path)
	return reg.opts.Mode, ok
}

// ---- Host services for DLFM (§4.3, 2PC recovery) ----

var _ dlfm.Host = (*Engine)(nil)

// RegisterContentHook installs a content-metadata derivation for one
// DATALINK column ("table", "column"). On every committed update of a file
// linked through that column, the hook runs over the new file content and
// its outputs are written to the named columns in the same transaction as
// the size/mtime update — extending §4.3's automatic metadata update to
// user metadata, which the paper leaves as future research.
func (e *Engine) RegisterContentHook(table, column string, hook ContentHook) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.contentHooks[strings.ToLower(table+"."+column)] = hook
}

func (e *Engine) contentHook(table, column string) (ContentHook, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	h, ok := e.contentHooks[strings.ToLower(table+"."+column)]
	return h, ok
}

// MetaUpdate runs the automatic metadata update for a committed file update
// in a fresh host transaction with the DLFM sub-transaction enlisted. The
// convention reproduced from §4.3: if the linking table has companion
// columns named <linkcol>_size (integer) and/or <linkcol>_mtime (timestamp),
// they are updated in the same transaction as DLFM's version bookkeeping;
// registered content hooks contribute further columns. The state id it
// returns, which tags the new file version, is that transaction's commit
// record: another transaction may have moved the log's durable tail past it
// by the time Commit returns.
func (e *Engine) MetaUpdate(server, path string, size int64, mtime time.Time, sub sqlmini.XRM) (uint64, error) {
	txn := e.db.Begin()
	txn.Enlist(sub)
	if reg, ok := e.lookupReg(server, path); ok {
		l := datalink.Link{Server: server, Path: path}
		err := e.applyMetaColumns(txn, reg, l, size, mtime)
		if hook, ok := e.contentHook(reg.table, reg.col); ok && err == nil {
			err = e.applyContentHook(txn, reg, l, hook)
		}
		if err != nil {
			_ = txn.Abort()
			return 0, err
		}
	}
	if err := txn.Commit(); err != nil {
		return 0, err
	}
	e.reg.Counter("engine.meta_updates").Inc()
	return uint64(txn.CommitLSN()), nil
}

// colValue is one column assignment of a host row update.
type colValue struct {
	col int
	v   sqlmini.Value
}

// setLinkedRow is `UPDATE <tbl> SET … WHERE <col> = l` as typed point
// operations: the row is found through the link column's implicit index,
// X-locked, copied, given sets and installed by UpdateRow, which coerces and
// checks it as the statement would. A row whose link changed while the lock
// was awaited no longer matches.
func setLinkedRow(txn *sqlmini.Txn, tbl *sqlmini.Table, col string, l datalink.Link, sets []colValue) error {
	linkCol := tbl.ColIndex(col)
	ids, _ := tbl.LookupIndex(linkCol, sqlmini.Link(l))
	for _, id := range ids {
		old, ok, err := txn.LockRow(tbl, id, sqlmini.LockX)
		if err != nil {
			return err
		}
		if now, _ := old[linkCol].AsLink(); !ok || now != l {
			continue
		}
		row := old.Clone()
		for _, s := range sets {
			row[s.col] = s.v
		}
		if err := txn.UpdateRow(tbl, id, row); err != nil {
			return err
		}
	}
	return nil
}

// applyContentHook runs the hook over the file's content and updates the
// derived columns in the same transaction.
func (e *Engine) applyContentHook(txn *sqlmini.Txn, reg registration, l datalink.Link, hook ContentHook) error {
	c, err := e.conn(l.Server)
	if err != nil {
		return err
	}
	content, err := c.conn.ReadFileContent(l.Path)
	if err != nil {
		return err
	}
	derived := hook(content)
	if len(derived) == 0 {
		return nil
	}
	tbl, err := e.db.Table(reg.table)
	if err != nil {
		return err
	}
	sets := make([]colValue, 0, len(derived))
	for name, v := range derived {
		ci := tbl.ColIndex(name)
		if ci < 0 {
			return fmt.Errorf("sqlmini: no column %q in %s", name, reg.table)
		}
		sets = append(sets, colValue{ci, v})
	}
	sort.Slice(sets, func(i, j int) bool { return sets[i].col < sets[j].col })
	return setLinkedRow(txn, tbl, reg.col, l, sets)
}

// applyMetaColumns sets the companion columns <col>_size and <col>_mtime of
// the row referencing l, if the table has them.
func (e *Engine) applyMetaColumns(txn *sqlmini.Txn, reg registration, l datalink.Link, size int64, mtime time.Time) error {
	tbl, err := e.db.Table(reg.table)
	if err != nil {
		return err
	}
	var buf [2]colValue
	sets := buf[:0]
	for i, c := range tbl.Columns {
		switch {
		case companion(c.Name, reg.col, "_size"):
			sets = append(sets, colValue{i, sqlmini.Int(size)})
		case companion(c.Name, reg.col, "_mtime"):
			sets = append(sets, colValue{i, sqlmini.Time(mtime)})
		}
	}
	if len(sets) == 0 {
		return nil
	}
	return setLinkedRow(txn, tbl, reg.col, l, sets)
}

// companion reports whether name is col+suffix, case-insensitively.
func companion(name, col, suffix string) bool {
	return len(name) == len(col)+len(suffix) &&
		strings.EqualFold(name[:len(col)], col) && strings.EqualFold(name[len(col):], suffix)
}

// TxnOutcome reports the fate of a host transaction (DLFM in-doubt
// resolution).
func (e *Engine) TxnOutcome(txnID uint64) (committed, known bool) {
	return e.db.Outcome(txnID)
}

// StateID returns the current host database state identifier.
func (e *Engine) StateID() uint64 { return uint64(e.db.StateID()) }

// RebuildRegistry rescans every table for non-null DATALINK values and
// rebuilds the in-memory registry — used after a host restart.
func (e *Engine) RebuildRegistry() error {
	fresh := make(map[string]registration)
	if err := scanLinks(e.db, func(l datalink.Link, r registration) {
		fresh[regKey(l.Server, l.Path)] = r
	}); err != nil {
		return err
	}
	e.mu.Lock()
	e.registry = fresh
	e.mu.Unlock()
	return nil
}

// scanLinks calls fn for every non-null value of a linked DATALINK column in
// db, with the table, column and options it is linked under.
func scanLinks(db *sqlmini.DB, fn func(datalink.Link, registration)) error {
	for _, name := range db.TableNames() {
		tbl, err := db.Table(name)
		if err != nil {
			return err
		}
		for i, col := range tbl.Columns {
			if col.Kind != sqlmini.KindLink || !col.DL.Mode.Linked() {
				continue
			}
			reg := registration{table: tbl.Name, col: col.Name, opts: col.DL}
			tbl.Scan(func(_ sqlmini.RowID, row sqlmini.Row) bool {
				if l, ok := row[i].AsLink(); ok && !l.IsZero() {
					fn(l, reg)
				}
				return true
			})
		}
	}
	return nil
}

// LinkedFiles lists every registered link as URLs (status tooling).
func (e *Engine) LinkedFiles() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.registry))
	for key := range e.registry {
		parts := strings.SplitN(key, "\x00", 2)
		out = append(out, datalink.Link{Server: parts[0], Path: parts[1]}.URL())
	}
	return out
}
