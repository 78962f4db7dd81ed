package dlfm

import (
	"context"
	"fmt"
	"hash/maphash"
	"time"

	"datalinks/internal/fs"
	"datalinks/internal/obs"
	"datalinks/internal/token"
	"datalinks/internal/upcall"
)

// The upcall daemon (§2.2): services requests from DLFS to validate tokens
// and verify access permissions of linked files. This file implements the
// access-control half (§4.1) and the Sync-table bookkeeping (§4.5); the
// update-transaction half (write opens and closes, §4.2–4.4) is in
// update.go.

var (
	_ upcall.Service    = (*Server)(nil)
	_ upcall.CtxService = (*Server)(nil)
)

// Upcall dispatches one request from DLFS.
func (s *Server) Upcall(req upcall.Request) (upcall.Response, error) {
	return s.UpcallCtx(context.Background(), req)
}

// UpcallCtx is Upcall under a request context. When the context carries a
// trace span, the daemon's work gets a "dlfm" child span; the blocking and
// commit phases underneath annotate it further (lock, 2pc, archive).
//
// A killed server answers like a dead machine: every upcall fails with an
// error (the transport-loss class), never a panic in the caller's process
// and never a verdict. Kill closes the repository WAL out from under
// in-flight requests; a request that raced the death sees its repository
// statements fail with wal.ErrClosed, and whatever response it built from
// that — or from a panic — is replaced by the error a dead machine gives.
func (s *Server) UpcallCtx(ctx context.Context, req upcall.Request) (resp upcall.Response, err error) {
	if !s.Alive() {
		return upcall.Response{}, fmt.Errorf("dlfm: server %s is down", s.cfg.Name)
	}
	defer func() {
		r := recover()
		if s.Alive() {
			if r != nil {
				panic(r) // a real bug, not a raced death
			}
			return
		}
		resp, err = upcall.Response{}, fmt.Errorf("dlfm: server %s died mid-request", s.cfg.Name)
		if r != nil {
			err = fmt.Errorf("%w: %v", err, r)
		}
	}()
	if sp := obs.SpanFrom(ctx); sp != nil {
		c := sp.Child("dlfm")
		c.SetString("op", req.Op.String())
		ctx = obs.ContextWithSpan(ctx, c)
		defer c.End()
	}
	if req.Op > 0 && req.Op < upcallOpRange {
		s.upcallCtrs[req.Op].Inc()
	} else {
		s.cfg.Metrics.Counter("dlfm.upcall." + req.Op.String()).Inc()
	}
	switch req.Op {
	case upcall.OpValidateToken:
		return s.admitToken(req), nil
	case upcall.OpReadOpen:
		return s.readOpen(req), nil
	case upcall.OpWriteOpen:
		return s.writeOpen(ctx, req), nil
	case upcall.OpClose:
		return s.closeFile(ctx, req), nil
	case upcall.OpCheckRemove, upcall.OpCheckRename:
		return s.checkRemoveRename(req), nil
	default:
		return reject(upcall.CodeInternal, fmt.Sprintf("unknown upcall op %d", req.Op)), nil
	}
}

func reject(code upcall.Code, msg string) upcall.Response {
	return upcall.Response{OK: false, Code: code, Err: msg}
}

// admitToken verifies the token a request carries and records a token entry
// for the user (§4.1). A managed open carries its token in the open request
// itself — readOpen and writeOpen admit it before anything else, so a bad
// token creates no open — and the entry stays behind for the tokenless opens
// of other processes sharing the uid. It is also the whole of the standalone
// validate_token upcall, which DLFS sends for an open that presented a token
// but never reaches DLFM (a file the file system itself lets the caller
// open), and dlfmd's self-check sends over TCP.
func (s *Server) admitToken(req upcall.Request) upcall.Response {
	tok, err := s.auth.Validate(req.Token, req.Path)
	if err != nil {
		return reject(upcall.CodeBadToken, fmt.Sprintf("token rejected for %s: %v", req.Path, err))
	}
	s.tokMu.Lock()
	key := tokenKey{uid: fs.UID(req.UID), path: req.Path}
	// Keep the strongest live grant: a write token subsumes a read token,
	// an expired entry subsumes nothing.
	if cur, ok := s.tokens[key]; !ok || tok.Type.Covers(cur.typ) || s.cfg.Clock().After(cur.expiry) {
		s.tokens[key] = tokenEntry{typ: tok.Type, expiry: tok.Expiry}
	}
	// An entry nobody looks up again is never purged by tokenGrant, so
	// distinct users × paths would pile up for the life of the server. Sweep
	// the expired ones whenever the table has doubled since the last sweep:
	// each sweep is paid for by the inserts since the one before.
	if len(s.tokens) >= 2*s.tokSwept {
		now := s.cfg.Clock()
		for k, e := range s.tokens {
			if now.After(e.expiry) {
				delete(s.tokens, k)
			}
		}
		s.tokSwept = max(len(s.tokens), minTokenSweep)
	}
	s.tokMu.Unlock()
	return upcall.Response{OK: true}
}

// minTokenSweep keeps a near-empty token table from being swept on every
// insert.
const minTokenSweep = 64

// tokenGrant returns the live token entry for (uid, path), if any. The fast
// path is a shared-lock read; the exclusive lock is taken only to purge an
// expired entry.
func (s *Server) tokenGrant(uid fs.UID, path string) (tokenEntry, bool) {
	key := tokenKey{uid: uid, path: path}
	s.tokMu.RLock()
	e, ok := s.tokens[key]
	s.tokMu.RUnlock()
	if !ok {
		return tokenEntry{}, false
	}
	if s.cfg.Clock().After(e.expiry) {
		s.tokMu.Lock()
		if cur, still := s.tokens[key]; still && cur.expiry.Equal(e.expiry) {
			delete(s.tokens, key)
		}
		s.tokMu.Unlock()
		return tokenEntry{}, false
	}
	return e, true
}

// readOpen handles the fs_open upcall for read access to a file under full
// database control (and, with the strict-link-check extension, any file).
func (s *Server) readOpen(req upcall.Request) upcall.Response {
	if req.Token != "" {
		if resp := s.admitToken(req); !resp.OK {
			return resp
		}
	}
	fi, linked := s.lookupFile(req.Path)
	if !linked {
		if !req.Strict {
			return reject(upcall.CodeNotLinked, req.Path+" is not linked")
		}
		// Strict extension (§4.5 future work): register the open of an
		// unlinked file so a concurrent link transaction can detect it.
		sh, idx := s.pathShard(req.Path)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		id := s.newOpenLocked(sh, idx, req.Path, fs.UID(req.UID), false)
		s.syncFor(sh, req.Path).readers++
		s.cfg.Metrics.Counter("dlfm.open.read.strict").Inc()
		return upcall.Response{OK: true, OpenID: id}
	}
	if fi.mode.ReadNeedsToken() {
		grant, ok := s.tokenGrant(fs.UID(req.UID), req.Path)
		if !ok || !grant.typ.Covers(token.Read) {
			return noGrant(req, "read")
		}
	} else if !fi.mode.FullControl() {
		// A read upcall for a partial-control file happens only when DLFM has
		// taken the file over for an in-place update (rfd): the paper's
		// design rejects such reads — read/write serialization without read
		// locks (§4.2). With strict mode the file may simply be idle.
		// A refused read leaves no Sync entry behind.
		sh, idx := s.pathShard(req.Path)
		sh.mu.Lock()
		if st := sh.syncs[req.Path]; (st != nil && st.writer != 0) || !req.Strict {
			sh.mu.Unlock()
			return reject(upcall.CodePermission, req.Path+" is taken over for update")
		}
		id := s.newOpenLocked(sh, idx, req.Path, fs.UID(req.UID), false)
		s.syncFor(sh, req.Path).readers++
		sh.mu.Unlock()
		s.cfg.Metrics.Counter("dlfm.open.read.strict").Inc()
		return upcall.Response{OK: true, OpenID: id}
	}
	// Serialize against writers for full-control files: a reader must not
	// observe an in-flight update (§4.2).
	sh, idx := s.pathShard(req.Path)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !s.waitLocked(sh, req.Path, func(st *syncState) bool { return st.writer == 0 }) {
		return reject(upcall.CodeBusy, req.Path+" is being updated")
	}
	id := s.newOpenLocked(sh, idx, req.Path, fs.UID(req.UID), false)
	s.syncFor(sh, req.Path).readers++
	s.cfg.Metrics.Counter("dlfm.open.read").Inc()
	return upcall.Response{OK: true, OpenID: id, TakeOver: fi.mode.FullControl()}
}

// noGrant is the answer to an open the token table does not cover. An open
// that carried its own token is told the token was the problem; DLFS maps
// both codes to a permission error.
func noGrant(req upcall.Request, access string) upcall.Response {
	if req.Token != "" {
		return reject(upcall.CodeBadToken, "token does not grant "+access+" access to "+req.Path)
	}
	return reject(upcall.CodePermission, "no valid "+access+" token entry for "+req.Path)
}

// checkRemoveRename rejects user-level remove/rename of linked files: the
// referential-integrity guarantee ("no dangling pointers", §2.3).
func (s *Server) checkRemoveRename(req upcall.Request) upcall.Response {
	if _, linked := s.lookupFile(req.Path); linked {
		return reject(upcall.CodeIntegrity, req.Path+" is linked to the database")
	}
	if req.Op == upcall.OpCheckRename && req.NewPath != "" {
		// Renaming *onto* a linked file would also destroy it.
		if _, linked := s.lookupFile(req.NewPath); linked {
			return reject(upcall.CodeIntegrity, req.NewPath+" is linked to the database")
		}
	}
	return upcall.Response{OK: true}
}

// pathShard returns the open/sync shard owning a path, plus its index (the
// index is baked into open ids allocated under it).
func (s *Server) pathShard(path string) (*openShard, uint64) {
	idx := maphash.String(s.openSeed, path) & (openShardCount - 1)
	return &s.openShards[idx], idx
}

// openShardOf returns the shard an open id lives in — the id's low bits are
// its path's shard index.
func (s *Server) openShardOf(id uint64) *openShard {
	return &s.openShards[id&(openShardCount-1)]
}

// newOpenLocked allocates an open state in the path's shard. Caller holds
// sh.mu; idx is the shard's index (encoded into the id).
func (s *Server) newOpenLocked(sh *openShard, idx uint64, path string, uid fs.UID, write bool) uint64 {
	id := s.nextOpen.Add(1)<<openShardBits | idx
	st := &openState{id: id, path: path, uid: uid, write: write}
	if node, err := s.cfg.Phys.Lookup(path); err == nil {
		if attr, err := s.cfg.Phys.Getattr(node); err == nil {
			st.mtime = attr.Mtime
		}
	}
	sh.opens[id] = st
	return id
}

// syncFor returns the sync state for a path, creating it from a spare when
// the shard has one. Caller holds the path's shard mutex.
func (s *Server) syncFor(sh *openShard, path string) *syncState {
	st, ok := sh.syncs[path]
	if !ok {
		if n := len(sh.spare); n > 0 {
			st = sh.spare[n-1]
			sh.spare = sh.spare[:n-1]
		} else {
			st = &syncState{}
		}
		sh.syncs[path] = st
	}
	return st
}

// waitLocked blocks until pred holds for the path's sync state, the
// configured open-wait deadline passes, or the server is killed. Returns
// false on timeout and on a dead server. Caller holds the path's shard mutex
// on entry and exit; the wait itself parks on the path's own channel, so
// only changes to THIS path (or the deadline, or Kill) wake it.
func (s *Server) waitLocked(sh *openShard, path string, pred func(*syncState) bool) bool {
	deadline := time.Now().Add(s.cfg.OpenWait)
	for {
		select {
		case <-s.killed:
			return false
		default:
		}
		st := s.syncFor(sh, path)
		if pred(st) {
			return true
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return false
		}
		ch := make(chan struct{})
		st.waiters = append(st.waiters, ch)
		sh.mu.Unlock()
		timer := time.NewTimer(remaining)
		select {
		case <-ch:
			timer.Stop()
		case <-s.killed:
			timer.Stop()
		case <-timer.C:
		}
		sh.mu.Lock()
	}
}

// OpenCount reports live opens (tests and status tooling).
func (s *Server) OpenCount() int {
	n := 0
	for i := range s.openShards {
		sh := &s.openShards[i]
		sh.mu.Lock()
		n += len(sh.opens)
		sh.mu.Unlock()
	}
	return n
}

// SyncEntries reports the Sync-table view for a path: reader count and
// whether a writer holds it (§4.5).
func (s *Server) SyncEntries(path string) (readers int, writer bool) {
	sh, _ := s.pathShard(path)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.syncs[path]
	if !ok {
		return 0, false
	}
	return st.readers, st.writer != 0
}

// TokenEntryCount reports live token entries (tests).
func (s *Server) TokenEntryCount() int {
	s.tokMu.RLock()
	defer s.tokMu.RUnlock()
	return len(s.tokens)
}
