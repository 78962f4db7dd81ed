package engine

import (
	"fmt"
	"sort"

	"datalinks/internal/datalink"
	"datalinks/internal/sqlmini"
	"datalinks/internal/wal"
)

// Coordinated backup and restore (§4.4): a database backup captures the
// state identifier; restoring the database to a point in time also restores
// every recovery-enabled linked file to the version that was current at that
// state, from the archive.

// RestoreToState rewinds the host database to the given state identifier and
// directs every attached DLFM to restore its files to the matching versions.
// After the call the engine serves the restored database. The database is
// rebuilt by recovery over a copy of the log's records up to the state id,
// in a fresh private directory; the live database is replaced, and its
// directory removed, only once that recovery has succeeded.
func (e *Engine) RestoreToState(stateID uint64) error {
	lg, err := openHostLog()
	if err != nil {
		return err
	}
	var appendErr error
	err = e.db.Log().Scan(wal.NilLSN, wal.LSN(stateID), func(rec wal.Record) bool {
		_, appendErr = lg.Append(rec)
		return appendErr == nil
	})
	if err == nil {
		err = appendErr
	}
	if err == nil {
		_, err = lg.Flush()
	}
	var db *sqlmini.DB
	if err == nil {
		db, _, err = sqlmini.Recover(lg, sqlmini.Options{Clock: e.clock, Metrics: e.reg})
	}
	if err != nil {
		_ = discardHostLog(lg) // the restore's error is the one to report
		return fmt.Errorf("engine: database restore: %w", err)
	}
	e.mu.Lock()
	old := e.db
	e.db = db
	e.mu.Unlock()
	// The restore stands even if the old directory cannot be removed.
	_ = discardHostLog(old.Log())
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
		durable.Kill()
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
