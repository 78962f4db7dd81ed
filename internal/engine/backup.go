package engine

import (
	"fmt"
	"sort"
	"time"

	"datalinks/internal/datalink"
	"datalinks/internal/sqlmini"
	"datalinks/internal/wal"
)

// Coordinated backup and restore (§4.4): a database backup captures the
// state identifier; restoring the database to a point in time also restores
// every recovery-enabled linked file to the version that was current at that
// state, from the archive.

// BackupImage is a coordinated backup of the host database. File contents
// are NOT in the image — they live in the archive, keyed by state id, which
// is exactly the paper's design.
type BackupImage struct {
	StateID uint64
	TakenAt time.Time
	log     *wal.Log
}

// Backup captures the current database state. The image can be restored with
// RestoreToState or carried to a fresh Engine via RestoreImage.
func (e *Engine) Backup() *BackupImage {
	stateID := e.db.StateID()
	return &BackupImage{
		StateID: uint64(stateID),
		TakenAt: e.clock(),
		log:     e.db.Log().Prefix(stateID),
	}
}

// RestoreToState rewinds the host database to the given state identifier and
// directs every attached DLFM to restore its files to the matching versions.
// After the call the engine serves the restored database.
func (e *Engine) RestoreToState(stateID uint64) error {
	prefix := e.db.Log().Prefix(wal.LSN(stateID))
	return e.adoptRestoredLog(prefix, stateID)
}

// RestoreImage restores from a captured backup image (same protocol, using
// the image's log copy — e.g. after the live database was lost entirely).
func (e *Engine) RestoreImage(img *BackupImage) error {
	return e.adoptRestoredLog(img.log.Prefix(wal.LSN(img.StateID)), img.StateID)
}

// adoptRestoredLog rebuilds the database from a log prefix, swaps it in, and
// reconciles the file servers.
func (e *Engine) adoptRestoredLog(prefix *wal.Log, stateID uint64) error {
	db, _, err := sqlmini.Recover(prefix, sqlmini.Options{Clock: e.clock, Metrics: e.reg})
	if err != nil {
		return fmt.Errorf("engine: database restore: %w", err)
	}
	e.mu.Lock()
	e.db = db
	e.mu.Unlock()
	db.SetDMLHook(e.dmlHook)
	e.registerTokenFns()
	if err := e.RebuildRegistry(); err != nil {
		return err
	}
	// File half of the coordinated restore: per server, restore contents as
	// of the state id, then reconcile the managed-file set with the restored
	// database's references.
	e.mu.Lock()
	conns := make(map[string]*serverConn, len(e.servers))
	for n, c := range e.servers {
		conns[n] = c
	}
	reg := make(map[string]registration, len(e.registry))
	for k, v := range e.registry {
		reg[k] = v
	}
	e.mu.Unlock()

	names := make([]string, 0, len(conns))
	for n := range conns {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		srv, ok := conns[name].conn.(Restorer)
		if !ok {
			return fmt.Errorf("engine: file server %q does not support coordinated restore", name)
		}
		if err := srv.RestoreAsOf(stateID); err != nil {
			return err
		}
		desired := make(map[string]datalink.ColumnOptions)
		for key, r := range reg {
			server, path := splitRegKey(key)
			if server == name {
				desired[path] = r.opts
			}
		}
		if err := srv.ReconcileLinks(desired); err != nil {
			return err
		}
	}
	e.reg.Counter("engine.restores").Inc()
	return nil
}

// RecoverHost simulates a host database crash and restart: the volatile log
// tail is lost, the database is rebuilt from the durable prefix, and the
// engine re-attaches (hooks, scalar functions, registry). DLFMs keep their
// reference to the engine and resolve in-doubt transactions against the
// recovered outcome map.
func (e *Engine) RecoverHost() error {
	durable, err := e.db.Crash()
	if err != nil {
		return fmt.Errorf("engine: host crash: %w", err)
	}
	db, _, err := sqlmini.Recover(durable, sqlmini.Options{Clock: e.clock, Metrics: e.reg})
	if err != nil {
		return fmt.Errorf("engine: host recovery: %w", err)
	}
	e.mu.Lock()
	e.db = db
	e.mu.Unlock()
	db.SetDMLHook(e.dmlHook)
	e.registerTokenFns()
	return e.RebuildRegistry()
}

func splitRegKey(key string) (server, path string) {
	for i := 0; i < len(key); i++ {
		if key[i] == 0 {
			return key[:i], key[i+1:]
		}
	}
	return key, ""
}
