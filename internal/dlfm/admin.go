package dlfm

import (
	"fmt"
	"sort"

	"datalinks/internal/datalink"
	"datalinks/internal/fs"
	"datalinks/internal/sqlmini"
)

// Administrative reconciliation used by coordinated restore (§4.4): after the
// host database has been rewound to an earlier state, the set of files DLFM
// manages must match the references in the restored database — links made
// after the restore point are dissolved, links that existed then are
// re-established. This runs outside 2PC (it is itself part of a restore).

// LinkedPaths lists every path this server manages, sorted. The cluster
// router snapshots it to compute a rebalance work list.
func (s *Server) LinkedPaths() []string {
	tbl, err := s.repo.Table("dlfm_files")
	if err != nil {
		return nil
	}
	var out []string
	tbl.Scan(func(_ sqlmini.RowID, row sqlmini.Row) bool {
		out = append(out, decodeFileRow(row).path)
		return true
	})
	sort.Strings(out)
	return out
}

// ReconcileLinks makes the repository's linked-file set equal `desired`
// (path -> column options). File permissions are adjusted accordingly.
func (s *Server) ReconcileLinks(desired map[string]datalink.ColumnOptions) error {
	tbl, err := s.repo.Table("dlfm_files")
	if err != nil {
		return err
	}
	current := make(map[string]fileInfo)
	tbl.Scan(func(_ sqlmini.RowID, row sqlmini.Row) bool {
		fi := decodeFileRow(row)
		current[fi.path] = fi
		return true
	})

	// Dissolve links that should not exist at the restored state.
	for path, fi := range current {
		if _, keep := desired[path]; keep {
			continue
		}
		if _, err := s.repo.Exec(`DELETE FROM dlfm_files WHERE path = ?`, sqlmini.Str(path)); err != nil {
			return err
		}
		s.clearUpdateEntry(path)
		if err := s.release(fi); err != nil {
			return err
		}
		s.purgeTokens(path)
	}

	// Re-establish links that the restored database references but the
	// repository lost (e.g. an unlink that committed after the restore
	// point).
	for path, opts := range desired {
		if _, have := current[path]; have {
			continue
		}
		node, err := s.cfg.Phys.Lookup(path)
		if err != nil {
			return fmt.Errorf("dlfm: reconcile: %s referenced by restored database but missing: %w", path, err)
		}
		attr, err := s.cfg.Phys.Getattr(node)
		if err != nil {
			return err
		}
		// Determine the current version from the archive (restored earlier).
		ver := int64(0)
		if latest, ok := s.cfg.Archive.Newest(s.cfg.Name, path); ok {
			ver = int64(latest.Version)
		}
		fi := fileInfo{path: path, mode: opts.Mode, recovery: opts.Recovery, origUID: attr.UID, origMode: attr.Mode}
		if attr.UID == DefaultUID {
			// The file is still in its taken-over state from before the
			// restore; we no longer know the original identity unless a
			// version-0 archive entry can tell us. Default to root-owned
			// read-only; the administrator can chown afterwards.
			fi.origUID, fi.origMode = fs.Root, 0o644
		}
		if _, err := s.repo.Exec(
			`INSERT INTO dlfm_files (path, mode, recovery, token_ttl, orig_uid, orig_mode, cur_version)
			 VALUES (?, ?, ?, ?, ?, ?, ?)`,
			sqlmini.Str(path), sqlmini.Str(opts.Mode.String()), sqlmini.Bool(opts.Recovery),
			sqlmini.Int(int64(opts.TokenTTLSecs)), sqlmini.Int(int64(fi.origUID)), sqlmini.Int(int64(fi.origMode)),
			sqlmini.Int(ver)); err != nil {
			return err
		}
		// The at-rest state the next close would set.
		if err := s.setAtRest(fi); err != nil {
			return err
		}
	}
	return nil
}
