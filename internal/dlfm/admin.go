package dlfm

import (
	"fmt"

	"datalinks/internal/archive"
	"datalinks/internal/datalink"
	"datalinks/internal/fs"
	"datalinks/internal/sqlmini"
)

// Administration: the managed-file listing, and Restore, the file half of a
// coordinated point-in-time restore (§4.4). Restore runs outside 2PC (it is
// itself part of a restore), before the engine swaps the restored database in.

// LinkedPaths lists every path this server manages, sorted. The cluster
// router snapshots it to compute a rebalance work list.
func (s *Server) LinkedPaths() []string { return pathsOf(s.files) }

// Restore brings this server to a coordinated restore's target (§4.4): the
// host state id, and the link set (path -> column options) the restored
// database references. One scan of dlfm_files decides each managed file:
//   - a row the link set lacks is dissolved — its rows go in one repository
//     transaction (forgetPath), its tokens go and its owner and mode come
//     back. It is not rewound: its
//     history may begin after the state id;
//   - a RECOVERY YES row the link set keeps is rewound to its newest version
//     at or before the state id, and the newer versions are dropped;
//   - a path the link set names that has no row is linked again as it
//     stands (an unlink that committed after the restore point).
//
// Before anything changes, every row to rewind must hold a version at or
// before the state id; one that does not (its history was dropped by an
// unlink and begun again by a relink since) refuses the whole restore.
func (s *Server) Restore(stateID uint64, links map[string]datalink.ColumnOptions) error {
	rows := s.linkedFiles()
	targets := make(map[string]archive.Entry)
	for _, fi := range rows {
		if _, keep := links[fi.path]; keep && fi.recovery {
			entry, err := s.cfg.Archive.AsOf(s.cfg.Name, fi.path, stateID)
			if err != nil {
				return fmt.Errorf("dlfm: restore %s as of %d: %w", fi.path, stateID, err)
			}
			targets[fi.path] = entry
		}
	}
	linked := make(map[string]bool, len(rows))
	for _, fi := range rows {
		linked[fi.path] = true
		_, keep := links[fi.path]
		var err error
		switch {
		case !keep:
			if err = s.forgetPath(fi.path); err == nil {
				s.purgeTokens(fi.path)
				err = s.release(fi)
			}
		case fi.recovery:
			err = s.rewind(fi, targets[fi.path], stateID)
		}
		if err != nil {
			return err
		}
	}
	for path, opts := range links {
		if linked[path] {
			continue
		}
		if err := s.relink(path, opts); err != nil {
			return err
		}
	}
	return nil
}

// rewind installs entry, a file's newest version at or before stateID,
// deferred, and drops the versions after it.
func (s *Server) rewind(fi fileInfo, entry archive.Entry, stateID uint64) error {
	// The install holds the version's blobs, so the truncate below frees
	// none of them.
	if err := s.installDeferred(entry); err != nil {
		return fmt.Errorf("dlfm: restore %s: %w", fi.path, err)
	}
	if err := s.cfg.Archive.TruncateAfter(s.cfg.Name, fi.path, stateID); err != nil {
		return fmt.Errorf("dlfm: truncate archive of %s: %w", fi.path, err)
	}
	if err := s.setVersionNow(fi.path, entry.Version); err != nil {
		return err
	}
	return s.setAtRest(fi)
}

// relink takes a file the restored database references back under control,
// at its current content and newest archived version, with the at-rest state
// the next close would set.
func (s *Server) relink(path string, opts datalink.ColumnOptions) error {
	node, err := s.cfg.Phys.Lookup(path)
	if err != nil {
		return fmt.Errorf("dlfm: restore: %s referenced by restored database but missing: %w", path, err)
	}
	attr, err := s.cfg.Phys.Getattr(node)
	if err != nil {
		return err
	}
	fi := fileInfo{path: path, mode: opts.Mode, recovery: opts.Recovery, tokenTTL: opts.TokenTTLSecs,
		origUID: attr.UID, origMode: attr.Mode}
	if latest, ok := s.cfg.Archive.Newest(s.cfg.Name, path); ok {
		fi.version = latest.Version
	}
	if attr.UID == DefaultUID {
		// The file is still in its taken-over state from before the
		// restore; we no longer know the original identity unless a
		// version-0 archive entry can tell us. Default to root-owned
		// read-only; the administrator can chown afterwards.
		fi.origUID, fi.origMode = fs.Root, 0o644
	}
	if err := s.inRepo(func(tx *sqlmini.Txn) error {
		_, err := tx.InsertRow(s.files, fileRow(fi))
		return err
	}); err != nil {
		return err
	}
	return s.setAtRest(fi)
}
