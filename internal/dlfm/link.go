package dlfm

import (
	"errors"
	"fmt"

	"datalinks/internal/datalink"
	"datalinks/internal/fs"
	"datalinks/internal/fsyncer"
	"datalinks/internal/sqlmini"
)

// Link processing (§2.2): when a reference is inserted into or deleted from
// a DATALINK column, the DataLinks engine directs DLFM to start or stop
// managing the file. The repository changes run in a sub-transaction of the
// host database transaction; file-system side effects are applied eagerly
// and compensated on abort, exactly as the paper describes ("if the SQL
// transaction is rolled back, the changes made by the DLFM are undone").

// Errors surfaced to the engine (which turns them into SQL statement errors).
var (
	ErrAlreadyLinked = errors.New("dlfm: file already linked")
	ErrNotLinked     = errors.New("dlfm: file not linked")
	ErrFileBusy      = errors.New("dlfm: file is open or being updated")
	ErrNoSuchFile    = errors.New("dlfm: no such file on file server")
)

// subFor returns the repository sub-transaction bound to a host transaction,
// creating it on first use.
func (s *Server) subFor(hostTxn uint64) *subTxn {
	s.mu.Lock()
	defer s.mu.Unlock()
	sub, ok := s.subs[hostTxn]
	if !ok {
		sub = &subTxn{s: s, repo: s.repo.Begin()}
		s.subs[hostTxn] = sub
	}
	return sub
}

// LinkFile starts managing a file as part of host transaction hostTxn.
func (s *Server) LinkFile(hostTxn uint64, path string, opts datalink.ColumnOptions) error {
	tr := s.cfg.Tracer.Start("link")
	tr.Root().SetString("path", path)
	err := s.linkFile(hostTxn, path, opts)
	if err != nil {
		tr.Root().SetString("error", err.Error())
	}
	tr.Finish()
	return err
}

func (s *Server) linkFile(hostTxn uint64, path string, opts datalink.ColumnOptions) error {
	if !opts.Mode.Linked() {
		return fmt.Errorf("dlfm: mode %s does not link files", opts.Mode)
	}
	node, err := s.cfg.Phys.Lookup(path)
	if err != nil {
		return fmt.Errorf("%w: %s", ErrNoSuchFile, path)
	}
	attr, err := s.cfg.Phys.Getattr(node)
	if err != nil {
		return err
	}
	if attr.Type != fs.TypeFile {
		return fmt.Errorf("dlfm: %s is not a regular file", path)
	}
	// With the strict-link-check extension, opens of unlinked files are
	// registered in the Sync table, so a link of a currently-open file can
	// be detected and rejected — closing the §4.5 window of inconsistency.
	// Without it, the link succeeds and the window exists (the paper's
	// shipped behaviour).
	sh, _ := s.pathShard(path)
	sh.mu.Lock()
	if st, ok := sh.syncs[path]; ok && (st.writer != 0 || st.readers > 0) {
		sh.mu.Unlock()
		return fmt.Errorf("%w: %s is open", ErrFileBusy, path)
	}
	sh.mu.Unlock()

	sub := s.subFor(hostTxn)
	// Repository insert; the primary key rejects double links.
	fi := fileInfo{path: path, mode: opts.Mode, recovery: opts.Recovery, tokenTTL: opts.TokenTTLSecs,
		origUID: attr.UID, origMode: attr.Mode}
	if _, err := sub.repo.InsertRow(s.files, fileRow(fi)); err != nil {
		return fmt.Errorf("%w: %s", ErrAlreadyLinked, path)
	}
	sub.effects = append(sub.effects, effect{action: "link", file: fi})
	// Apply the file-system constraints for the control mode (§2.2, §4); an
	// abort gives the file back to its owner (finishEffect).
	if err := s.setAtRest(fi); err != nil {
		return err
	}
	s.cfg.Metrics.Counter("dlfm.link").Inc()
	return nil
}

// setAtRest gives a file the owner and permission bits its control mode
// requires at rest (Table 1): DLFM owns a full-control file read-only (§2.2),
// a DB-write mode keeps its owner without write permission, and rff — or
// NFF, a file DLFM gives back to its owner — keeps its original owner and
// mode. Link, close, restore, promote, reconciliation and recovery all end
// here. Idempotent.
func (s *Server) setAtRest(fi fileInfo) error {
	node, err := s.cfg.Phys.Lookup(fi.path)
	if err != nil {
		return err
	}
	uid, mode := fi.origUID, fi.origMode
	switch {
	case fi.mode.FullControl():
		uid, mode = DefaultUID, 0o400
	case fi.mode.Write != datalink.CtlFS:
		mode &^= 0o222
	}
	if err := s.cfg.Phys.Chown(node, rootCred, uid); err != nil {
		return err
	}
	return s.cfg.Phys.Chmod(node, rootCred, mode)
}

// release gives a file DLFM stops controlling back to its original owner and
// mode, setAtRest's no-control case. A file that is gone has nothing to give
// back.
func (s *Server) release(fi fileInfo) error {
	if !s.physExists(fi.path) {
		return nil
	}
	fi.mode = datalink.NFF
	return s.setAtRest(fi)
}

// UnlinkFile stops managing a file as part of host transaction hostTxn.
// Rejected while the file is open or being updated (§4.5).
func (s *Server) UnlinkFile(hostTxn uint64, path string) error {
	tr := s.cfg.Tracer.Start("unlink")
	tr.Root().SetString("path", path)
	err := s.unlinkFile(hostTxn, path)
	if err != nil {
		tr.Root().SetString("error", err.Error())
	}
	tr.Finish()
	return err
}

func (s *Server) unlinkFile(hostTxn uint64, path string) error {
	fi, linked := s.lookupFile(path)
	if !linked {
		return fmt.Errorf("%w: %s", ErrNotLinked, path)
	}
	// Synchronization with open files: any Sync entry or update entry
	// rejects the unlink (§4.5). A writer holds its Sync entry until its
	// close has archived, so no archive put outlives it into the history
	// Drop removes.
	sh, _ := s.pathShard(path)
	sh.mu.Lock()
	st, ok := sh.syncs[path]
	busy := ok && (st.writer != 0 || st.readers > 0)
	sh.mu.Unlock()
	if busy {
		return fmt.Errorf("%w: %s", ErrFileBusy, path)
	}
	if s.hasUpdateEntry(path) {
		return fmt.Errorf("%w: %s (update in progress)", ErrFileBusy, path)
	}

	sub := s.subFor(hostTxn)
	deleted, err := sub.repo.DeleteKey(s.files, sqlmini.Str(path))
	if err != nil {
		return err
	}
	if !deleted {
		return fmt.Errorf("%w: %s", ErrNotLinked, path)
	}
	// The file-system restoration waits for the commit (finishEffect): the
	// file stays protected if the transaction rolls back.
	sub.effects = append(sub.effects, effect{action: "unlink", file: fi})
	s.cfg.Metrics.Counter("dlfm.unlink").Inc()
	return nil
}

// hasUpdateEntry reports whether a durable update entry exists for path.
func (s *Server) hasUpdateEntry(path string) bool {
	_, ok := s.updates.LookupPK(sqlmini.Str(path))
	return ok
}

// purgeTokens drops all token entries for a path. The token table is guarded
// by tokMu (not the open/sync mutex): locking s.mu here raced every
// token admission.
func (s *Server) purgeTokens(path string) {
	s.tokMu.Lock()
	defer s.tokMu.Unlock()
	for k := range s.tokens {
		if k.path == path {
			delete(s.tokens, k)
		}
	}
}

// ---- XRM: the sub-transaction commits or aborts with the host (§2.2) ----

var (
	_ sqlmini.XRM = (*Server)(nil)
	_ sqlmini.XRM = (*subTxn)(nil)
)

// subTxn is a repository sub-transaction bound to a host transaction, with
// the file-system side effects it made. A link or unlink one is found by its
// host transaction through the Server, which the engine enlists; a close's
// makes none and is enlisted itself in the host's metadata update (§4.3).
type subTxn struct {
	s       *Server
	repo    *sqlmini.Txn
	effects []effect
}

// effect is one file-system side effect of a sub-transaction, finished or
// undone once its outcome is known (finishEffect). Of file it carries the
// path, the original owner and mode and the recovery option.
type effect struct {
	action string // "link" or "unlink"
	file   fileInfo
}

// XRMName identifies this DLFM in host transaction errors.
func (s *Server) XRMName() string { return "dlfm:" + s.cfg.Name }

// PrepareXRM prepares the sub-transaction of hostTxn.
func (s *Server) PrepareXRM(hostTxn uint64) error {
	s.mu.Lock()
	sub, ok := s.subs[hostTxn]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("dlfm: no sub-transaction for host txn %d", hostTxn)
	}
	return sub.PrepareXRM(hostTxn)
}

// CommitXRM finishes the sub-transaction of hostTxn on the host's commit.
func (s *Server) CommitXRM(hostTxn uint64) error {
	sub, err := s.takeSub(hostTxn)
	if err != nil {
		return err
	}
	return sub.CommitXRM(hostTxn)
}

// XRMDurable reports whether a returned commit is on stable storage: it is
// under the group and always fsync policies, where the commit record's flush
// waits for an fsync. Under none it is in the OS page cache only, and a
// machine crash can put the sub-transaction back in doubt.
func (s *Server) XRMDurable() bool { return s.repo.Log().SyncPolicy() != fsyncer.PolicyNone }

// AbortXRM rolls the sub-transaction of hostTxn back on the host's abort.
func (s *Server) AbortXRM(hostTxn uint64) error {
	sub, err := s.takeSub(hostTxn)
	if err != nil {
		return err
	}
	return sub.AbortXRM(hostTxn)
}

// takeSub removes the sub-transaction of hostTxn from the table and returns
// it.
func (s *Server) takeSub(hostTxn uint64) (*subTxn, error) {
	s.mu.Lock()
	sub, ok := s.subs[hostTxn]
	delete(s.subs, hostTxn)
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("dlfm: no sub-transaction for host txn %d", hostTxn)
	}
	return sub, nil
}

// XRMName identifies the sub-transaction's DLFM.
func (sub *subTxn) XRMName() string { return sub.s.XRMName() }

// PrepareXRM prepares the repository transaction with its recovery note in
// the forced prepare record: the host transaction and the side effects,
// everything a restart needs to resolve it (resolveInDoubt).
func (sub *subTxn) PrepareXRM(hostTxn uint64) error {
	return sub.repo.Prepare(encodeNote(hostTxn, sub.effects))
}

// CommitXRM commits the repository transaction and finishes the side
// effects.
func (sub *subTxn) CommitXRM(uint64) error { return sub.end(true) }

// AbortXRM rolls the repository transaction back and undoes the side
// effects.
func (sub *subTxn) AbortXRM(uint64) error { return sub.end(false) }

// XRMDurable is the DLFM's: the sub-transaction commits in its repository.
func (sub *subTxn) XRMDurable() bool { return sub.s.XRMDurable() }

// end ends the repository transaction with the host's outcome and resolves
// its side effects, as restart recovery resolves one left in doubt.
func (sub *subTxn) end(committed bool) error {
	end := sub.repo.Abort
	if committed {
		end = sub.repo.Commit
	}
	if err := end(); err != nil {
		return err
	}
	return sub.s.resolveEffects(sub.effects, committed)
}

// noteEffectLen is how many values one side effect takes in a note.
const noteEffectLen = 5

// encodeNote lays out a sub-transaction's recovery note: the host
// transaction id, then per side effect its action, path, original owner and
// mode, and recovery option.
func encodeNote(hostTxn uint64, effects []effect) sqlmini.Row {
	note := make(sqlmini.Row, 0, 1+noteEffectLen*len(effects))
	note = append(note, sqlmini.Int(int64(hostTxn)))
	for _, e := range effects {
		note = append(note, sqlmini.Str(e.action), sqlmini.Str(e.file.path), sqlmini.Int(int64(e.file.origUID)),
			sqlmini.Int(int64(e.file.origMode)), sqlmini.Bool(e.file.recovery))
	}
	return note
}

// decodeNote is the inverse of encodeNote; ok is false for a row of any
// other shape, an empty one among them.
func decodeNote(note sqlmini.Row) (hostTxn uint64, effects []effect, ok bool) {
	if len(note) == 0 || (len(note)-1)%noteEffectLen != 0 || note[0].K != sqlmini.KindInt {
		return 0, nil, false
	}
	for r := note[1:]; len(r) > 0; r = r[noteEffectLen:] {
		if r[0].K != sqlmini.KindString || r[1].K != sqlmini.KindString || r[2].K != sqlmini.KindInt ||
			r[3].K != sqlmini.KindInt || r[4].K != sqlmini.KindBool {
			return 0, nil, false
		}
		effects = append(effects, effect{action: r[0].S, file: fileInfo{path: r[1].S,
			origUID: fs.UID(r[2].I), origMode: fs.FileMode(r[3].I), recovery: r[4].B}})
	}
	return uint64(note[0].I), effects, true
}
