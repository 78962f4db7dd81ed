// Package dlfm implements the DataLinks File Manager of §2.2 and §4: the
// user-space daemon on each file server that owns the DataLinks repository,
// executes link/unlink as sub-transactions of host database transactions
// (two-phase commit), services upcalls from DLFS (token validation, open and
// close processing), coordinates in-place update transactions, archives
// every committed version before its close returns, and recovers all of it
// after a crash.
//
// Link, unlink and the close of an update are one kind of sub-transaction
// (subTxn). Its prepare record carries its recovery note — the host
// transaction's id and the file-system side effects to finish or undo — so
// a restart resolves one left in doubt from the log alone, and no table or
// extra forced transaction keeps that information.
//
// The repository is itself a transactional database (an instance of
// internal/sqlmini with its own WAL) — mirroring the real DLFM, which was
// built as a transactional resource manager [Hsiao & Narang, SIGMOD 2000].
package dlfm

import (
	"errors"
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"

	"datalinks/internal/archive"
	"datalinks/internal/datalink"
	"datalinks/internal/fs"
	"datalinks/internal/fsyncer"
	"datalinks/internal/metrics"
	"datalinks/internal/obs"
	"datalinks/internal/sqlmini"
	"datalinks/internal/token"
	"datalinks/internal/upcall"
	"datalinks/internal/wal"
)

// upcallOpRange bounds the upcall.Op space for the counter cache (ops are
// small consecutive constants starting at 1).
const upcallOpRange = upcall.OpReadOpen + 1

// DefaultUID is the well-known uid the DLFM process runs as; file takeover
// (§4) transfers ownership to this uid.
const DefaultUID fs.UID = 777

// DefaultQuarantineDir is where in-flight versions of rolled-back updates
// are moved (§4.2: "the in-flight version of the file is moved to a
// temporary directory").
const DefaultQuarantineDir = "/lost+found"

// Host is the interface back to the host database's DataLinks engine. DLFM
// uses it to run the metadata half of a file-update transaction (§4.3) and
// to resolve in-doubt sub-transactions after a restart.
type Host interface {
	// MetaUpdate runs, in a fresh host transaction with sub enlisted as a
	// 2PC participant, the automatic metadata update for a committed file
	// update (size and modification time, §4.3). It returns the host
	// database state identifier of the committed transaction (§4.4).
	MetaUpdate(server, path string, size int64, mtime time.Time, sub sqlmini.XRM) (uint64, error)
	// TxnOutcome reports whether host transaction txnID committed. known is
	// false while the outcome is undecided.
	TxnOutcome(txnID uint64) (committed, known bool)
	// StateID returns the current host database state identifier.
	StateID() uint64
}

// Config configures a DLFM server.
type Config struct {
	Name     string // file server name (the DATALINK URL authority)
	Phys     *fs.FS // physical file system of this server
	Archive  *archive.Store
	Host     Host
	TokenKey []byte // shared secret with the DataLinks engine
	Clock    func() time.Time
	// QuarantineTTL expires quarantined in-flight versions this long after
	// they were written (§4.2 moves them aside "for possible manual
	// recovery"; without expiry they accumulate unbounded). Zero keeps them
	// forever. Expiry happens when SweepQuarantine runs.
	QuarantineTTL time.Duration
	// OpenWait bounds how long write-open approval waits for conflicting
	// opens — a writer's lasts until its close has archived — before
	// returning CodeBusy.
	OpenWait time.Duration
	TokenTTL time.Duration
	// RepoDir is the repository's directory, and required: WAL segments,
	// the repo.snap checkpoint and the repo.lock single-owner lockfile live
	// there, and Open cold-starts from whatever the directory holds.
	RepoDir string
	// RepoFsync is the repository WAL durability policy.
	RepoFsync fsyncer.Policy
	Metrics   *metrics.Registry
	// Tracer, when set, records request-scoped traces for the operations the
	// daemon originates itself (link/unlink). Upcall-driven work is traced
	// through the context the transport hands in, not this field.
	Tracer *obs.Tracer
}

// DefaultRepoCheckpointBytes is the repository's automatic checkpoint
// trigger: a checkpoint, and the log truncated below it, after this many
// logged bytes.
const DefaultRepoCheckpointBytes = 1 << 20

// openState tracks one approved open between its open and close upcalls.
type openState struct {
	id    uint64
	path  string
	uid   fs.UID
	write bool
	mtime time.Time // file mtime at open (modification detection, §4.4)
}

// syncState is the in-memory image of the Sync table rows for one file
// (§4.5). Entries are volatile: a crash ends every open.
//
// Each path carries its own wait queue: an open blocked on this file's
// writer parks on a channel here and is woken only when THIS
// path's state changes — there is no server-wide broadcast, so traffic on
// one file never wakes (or delays) openers of another.
type syncState struct {
	readers int    // live read opens; only ever counted
	writer  uint64 // openID, 0 if none; held until the close has archived
	waiters []chan struct{}
}

// wake releases every waiter parked on this path's state.
func (st *syncState) wake() {
	for _, ch := range st.waiters {
		close(ch)
	}
	st.waiters = nil
}

// idle reports whether the state carries no information and can be dropped.
func (st *syncState) idle() bool {
	return st.writer == 0 && st.readers == 0 && len(st.waiters) == 0
}

// tokenKey identifies a token entry: the paper stores entries per *userid*,
// not per process (§4.1).
type tokenKey struct {
	uid  fs.UID
	path string
}

// tokenEntry is a validated token registered by the upcall daemon.
type tokenEntry struct {
	typ    token.Type
	expiry time.Time
}

// openShardCount stripes the open/sync bookkeeping by path hash (like the
// sqlmini lock-manager shards): traffic on one file never takes the same
// mutex as traffic on another, outside 1-in-openShardCount hash collisions.
// Must be a power of two; open ids encode their shard in the low bits so an
// open can be found by id alone.
const openShardCount = 16

// openShardBits is log2(openShardCount).
const openShardBits = 4

// openShard is one stripe of the open/sync bookkeeping. An open id
// always lives in the shard of its path, so one lock covers an open and its
// file's sync state together.
type openShard struct {
	mu    sync.Mutex
	syncs map[string]*syncState
	opens map[uint64]*openState
}

// Server is a DLFM instance. One per file server.
//
// Locking: the token table has its own read/write mutex — token validation
// and token-entry checks (every managed open) never contend with the open/
// sync bookkeeping. That bookkeeping itself is striped across openShardCount
// path-hashed shards, so concurrent opens of different files do not
// serialize; blocked opens wait on per-path channels inside syncState, not
// on a server-wide condition variable. The remaining server mutex guards
// only the sub-transaction table and the small counters.
type Server struct {
	cfg  Config
	repo *sqlmini.DB
	auth *token.Authority

	tokMu  sync.RWMutex
	tokens map[tokenKey]tokenEntry
	// tokSwept is how many entries the last expiry sweep left (never under
	// minTokenSweep); admitToken sweeps again when the table doubles.
	tokSwept int

	openSeed   maphash.Seed
	openShards [openShardCount]openShard
	nextOpen   atomic.Uint64

	mu     sync.Mutex
	subs   map[uint64]*subTxn
	agents int64
	closed bool
	// killed is closed by Kill: what a write-open parked in waitLocked, on a
	// member whose holders died with it, wakes on.
	killed chan struct{}

	qseq atomic.Uint64

	// repl holds the owner-side shard replicator (SetReplicator); nil box or
	// nil interface means replication is off and ships are no-ops.
	repl atomic.Pointer[replicatorBox]
	// promoteMu orders replica applies (read side) against promotes: a ship
	// that passed its not-linked check lands before the promote, never after.
	promoteMu sync.RWMutex

	// upcallCtrs caches the per-op dispatch counters (indexed by upcall.Op)
	// so the upcall hot path skips the registry lookup and name formatting.
	upcallCtrs [upcallOpRange]*metrics.Counter
}

// Open starts a DLFM server from its durable state in RepoDir, which is
// required: it opens the disk WAL (taking the repo.lock) and runs full
// cold-start recovery — repository WAL replay, schema repair, in-doubt
// resolution, archive reconciliation, in-flight rollback and file
// materialization. An empty directory recovers to an empty repository and
// gets its schema. A crash-restart is Kill followed by Open over the same
// directory. The returned report is nil on a fresh start.
func Open(cfg Config) (*Server, *RecoveryReport, error) {
	if cfg.Phys == nil || cfg.Archive == nil {
		return nil, nil, errors.New("dlfm: Phys and Archive are required")
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.OpenWait <= 0 {
		cfg.OpenWait = 5 * time.Second
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	lg, err := wal.Open(wal.Config{Dir: cfg.RepoDir, Fsync: cfg.RepoFsync})
	if err != nil {
		return nil, nil, fmt.Errorf("dlfm: repository log in RepoDir %q: %w", cfg.RepoDir, err)
	}
	s, rep, err := start(cfg, lg)
	if err != nil {
		lg.Kill()
		return nil, nil, err
	}
	return s, rep, nil
}

// start builds a server over lg, its opened repository log, and runs
// restart recovery. The report is nil for a fresh repository.
func start(cfg Config, lg *wal.Log) (*Server, *RecoveryReport, error) {
	// Nothing ever logged and nothing checkpointed: a fresh repository.
	fresh := lg.TailLSN() == wal.NilLSN && lg.Base() == wal.NilLSN
	repo, repoRep, err := sqlmini.Recover(lg, sqlmini.Options{
		Clock:           cfg.Clock,
		LockTimeout:     cfg.OpenWait,
		Metrics:         cfg.Metrics,
		Dir:             cfg.RepoDir,
		CheckpointBytes: DefaultRepoCheckpointBytes,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("dlfm: repository recovery: %w", err)
	}
	subs, err := inDoubtSubs(repo)
	if err != nil {
		return nil, nil, err
	}
	s := &Server{
		cfg:      cfg,
		repo:     repo,
		auth:     token.NewAuthority(cfg.TokenKey, cfg.Clock, cfg.TokenTTL),
		tokens:   make(map[tokenKey]tokenEntry),
		tokSwept: minTokenSweep,
		openSeed: maphash.MakeSeed(),
		subs:     make(map[uint64]*subTxn),
		killed:   make(chan struct{}),
	}
	for i := range s.openShards {
		sh := &s.openShards[i]
		sh.syncs = make(map[string]*syncState)
		sh.opens = make(map[uint64]*openState)
	}
	for op := upcall.Op(1); op < upcallOpRange; op++ {
		s.upcallCtrs[op] = cfg.Metrics.Counter("dlfm.upcall." + op.String())
	}
	if err := cfg.Phys.MkdirAll(DefaultQuarantineDir, fs.Cred{UID: fs.Root}, 0o700); err != nil {
		return nil, nil, fmt.Errorf("dlfm: quarantine dir: %w", err)
	}
	s.seedQuarantineSeq()
	rep := &RecoveryReport{Repo: repoRep}
	if err := s.runRecovery(subs, rep); err != nil {
		return nil, nil, err
	}
	if fresh {
		return s, nil, nil
	}
	return s, rep, nil
}

// repoSchema pairs each repository table with its DDL so first boot can
// create everything and recovery can fill in whatever a mid-bootstrap crash
// left missing.
var repoSchema = []struct {
	table string
	ddl   string
}{
	// Linked files and the identity needed to undo a takeover.
	{"dlfm_files", `CREATE TABLE dlfm_files (
		path VARCHAR PRIMARY KEY,
		mode VARCHAR NOT NULL,
		recovery BOOLEAN NOT NULL,
		token_ttl INT,
		orig_uid INT NOT NULL,
		orig_mode INT NOT NULL,
		cur_version INT NOT NULL
	)`},
	// Files with an update transaction in flight (§4.4: "an entry
	// indicating that the file is being updated").
	{"dlfm_updates", `CREATE TABLE dlfm_updates (path VARCHAR PRIMARY KEY, open_id INT NOT NULL)`},
	// Committed versions whose archive copy has not completed yet.
	{"dlfm_pending_archive", `CREATE TABLE dlfm_pending_archive (path VARCHAR PRIMARY KEY, version INT NOT NULL, state_id INT NOT NULL)`},
	// Replicated shards held for other ring members: promotion identity plus
	// the last acked version. Deliberately NOT dlfm_files — the linked-file
	// namespace, rebalance, and recovery scans must never see replicas.
	{"dlfm_replicas", `CREATE TABLE dlfm_replicas (
		path VARCHAR PRIMARY KEY,
		mode VARCHAR NOT NULL,
		recovery BOOLEAN NOT NULL,
		token_ttl INT,
		orig_uid INT NOT NULL,
		orig_mode INT NOT NULL,
		cur_version INT NOT NULL,
		mtime_ns INT NOT NULL
	)`},
}

// ensureRepoTables creates every repository table the repository lacks:
// all of them on a fresh one, whatever a crash during first-boot schema
// creation left missing otherwise. Existing tables are untouched.
func (s *Server) ensureRepoTables() error {
	for _, t := range repoSchema {
		if _, err := s.repo.Table(t.table); err == nil {
			continue
		}
		if _, err := s.repo.Exec(t.ddl); err != nil {
			return fmt.Errorf("dlfm: repo schema repair: %w", err)
		}
	}
	return nil
}

// Name returns the file server name.
func (s *Server) Name() string { return s.cfg.Name }

// Authority exposes the token authority (the engine shares the key instead
// in a real deployment; tests use this for forged-token scenarios).
func (s *Server) Authority() *token.Authority { return s.auth }

// Repo exposes the repository database (inspection and tests).
func (s *Server) Repo() *sqlmini.DB { return s.repo }

// UID returns the uid DLFM runs as.
func (s *Server) UID() fs.UID { return DefaultUID }

// Metrics returns the server's metrics registry.
func (s *Server) Metrics() *metrics.Registry { return s.cfg.Metrics }

// ConnectAgent mirrors the main-daemon/child-agent structure of §2.2: each
// database agent connection gets a child agent. Functionally the agent is a
// thin handle; the call counting feeds the F1 architecture figure.
func (s *Server) ConnectAgent() *Agent {
	s.mu.Lock()
	s.agents++
	n := s.agents
	s.mu.Unlock()
	s.cfg.Metrics.Counter("dlfm.agents").Inc()
	return &Agent{srv: s, id: n}
}

// AgentCount reports how many child agents have been spawned.
func (s *Server) AgentCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.agents
}

// Agent is a child agent serving one DataLinks engine connection.
type Agent struct {
	srv *Server
	id  int64
}

// ID returns the agent's index.
func (a *Agent) ID() int64 { return a.id }

// Server returns the owning DLFM.
func (a *Agent) Server() *Server { return a.srv }

// LinkFile forwards to the server's link processing.
func (a *Agent) LinkFile(hostTxn uint64, path string, opts datalink.ColumnOptions) error {
	return a.srv.LinkFile(hostTxn, path, opts)
}

// UnlinkFile forwards to the server's unlink processing.
func (a *Agent) UnlinkFile(hostTxn uint64, path string) error {
	return a.srv.UnlinkFile(hostTxn, path)
}

// Close takes a final repository checkpoint so the next Open replays almost
// nothing, and closes the log. The checkpoint is best effort — the log alone
// suffices — so a failed one is only counted,
// dlfm.repo.close_checkpoint_failures. The error is the log's: records it
// reports may not have reached the disk.
func (s *Server) Close() error {
	s.mu.Lock()
	closed := s.closed
	s.closed = true
	s.mu.Unlock()
	if closed {
		return nil
	}
	if _, err := s.repo.Checkpoint(); err != nil {
		s.cfg.Metrics.Counter("dlfm.repo.close_checkpoint_failures").Inc()
	}
	return s.repo.Log().Close()
}

// Kill simulates the whole process dying (kill -9): nothing is waited for,
// nothing is flushed, the repository log drops its volatile tail and
// releases its directory lock. Only what already reached RepoDir and the
// archive directory survives for the next Open. Whoever is waiting on the
// dead member answers at once, as callers of a dead process would: the
// repository's lock manager is closed (a lock's holder died with the WAL and
// will never release it) and every parked open is woken.
func (s *Server) Kill() {
	s.mu.Lock()
	s.closed = true
	select {
	case <-s.killed:
	default:
		close(s.killed)
	}
	s.mu.Unlock()
	s.repo.LockManager().Close()
	s.repo.Log().Kill()
}

// Alive reports whether the server is still serving (not closed, not
// killed). The cluster's health probe polls this to detect silent deaths.
func (s *Server) Alive() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed
}

// fileInfo is the decoded dlfm_files row.
type fileInfo struct {
	path     string
	mode     datalink.ControlMode
	recovery bool
	tokenTTL int
	origUID  fs.UID
	origMode fs.FileMode
	version  archive.Version
}

// lookupFile reads a file's repository row outside any transaction (the
// upcall path must not block on link transactions in progress; it sees the
// current committed-or-eager state, which is exactly the §4.5 window).
func (s *Server) lookupFile(path string) (fileInfo, bool) {
	tbl, err := s.repo.Table("dlfm_files")
	if err != nil {
		return fileInfo{}, false
	}
	id, ok := tbl.LookupPK(sqlmini.Str(path))
	if !ok {
		return fileInfo{}, false
	}
	row, ok := tbl.Get(id)
	if !ok {
		return fileInfo{}, false
	}
	return decodeFileRow(row), true
}

func decodeFileRow(row sqlmini.Row) fileInfo {
	mode, _ := datalink.ParseMode(row[1].S)
	return fileInfo{
		path:     row[0].S,
		mode:     mode,
		recovery: row[2].B,
		tokenTTL: int(row[3].I),
		origUID:  fs.UID(row[4].I),
		origMode: fs.FileMode(row[5].I),
		version:  archive.Version(row[6].I),
	}
}

// ReadFileContent returns the current content of a file on this server —
// the engine uses it to feed content-derived metadata hooks (§4.3's
// "content specific attributes", left as future research in the paper and
// implemented here as an extension).
func (s *Server) ReadFileContent(path string) ([]byte, error) {
	return s.cfg.Phys.ReadFile(path)
}

// IsLinked reports whether a path is currently linked.
func (s *Server) IsLinked(path string) bool {
	_, ok := s.lookupFile(path)
	return ok
}

// FileMode returns the control mode a path is linked under.
func (s *Server) FileMode(path string) (datalink.ControlMode, bool) {
	fi, ok := s.lookupFile(path)
	return fi.mode, ok
}

// rootCred is the credential DLFM uses for its own file operations; the
// daemon runs with system privileges on its file server.
var rootCred = fs.Cred{UID: fs.Root}
