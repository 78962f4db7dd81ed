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
// state, from the archive. The restore declares one target per file server —
// the state id and the link set the restored database references — and each
// server converges to it in one pass over its managed files. The host is
// swapped last, so a file half that fails leaves the live database serving.

// RestoreToState rewinds the host database and every attached file server to
// the given state identifier. The database is rebuilt by recovery over a copy
// of the log's records up to the state id, in a fresh private directory, and
// one scan of that copy gives each file server its link set. Every file
// server is handed its target; only once all of them have reached it is the
// rebuilt database swapped in and the live one's directory removed. If the
// rebuild or any file server fails, the live database keeps serving.
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
	registry := make(map[string]registration)
	links := make(map[string]map[string]datalink.ColumnOptions)
	err = scanLinks(db, func(l datalink.Link, r registration) {
		registry[regKey(l.Server, l.Path)] = r
		if links[l.Server] == nil {
			links[l.Server] = make(map[string]datalink.ColumnOptions)
		}
		links[l.Server][l.Path] = r.opts
	})
	names := e.ServerNames()
	sort.Strings(names)
	for i := 0; err == nil && i < len(names); i++ {
		var c *serverConn
		if c, err = e.conn(names[i]); err == nil {
			err = c.conn.Restore(stateID, links[names[i]])
		}
	}
	if err != nil {
		_ = discardHostLog(lg)
		return err
	}
	e.attach(db)
	e.mu.Lock()
	old := e.db
	e.db, e.registry = db, registry
	e.mu.Unlock()
	// The restore stands even if the old directory cannot be removed.
	_ = discardHostLog(old.Log())
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
	e.attach(db)
	e.mu.Lock()
	e.db = db
	e.mu.Unlock()
	return e.RebuildRegistry()
}
