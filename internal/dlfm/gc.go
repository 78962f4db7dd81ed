package dlfm

import (
	"strconv"
	"strings"

	"datalinks/internal/fs"
)

// Quarantine garbage collection. Rolled-back and crash-recovered update
// transactions move their in-flight content to the quarantine directory
// (§4.2) for possible manual recovery; without expiry those files accumulate
// forever — one per abort — and cap how long a server can run. When
// Config.QuarantineTTL is set, quarantined files older than the TTL (by file
// mtime, which the manifest-swap write stamps from the shared clock) are
// deleted whenever SweepQuarantine runs.

// seedQuarantineSeq advances the quarantine-name sequence counter past any
// surviving quarantine files: a recovered server restarts the in-memory
// counter, and under a frozen or coarse clock a post-crash rollback could
// otherwise regenerate a pre-crash name and overwrite its content. Names end
// in ".<seq>"; non-conforming entries are ignored.
func (s *Server) seedQuarantineSeq() {
	names, err := s.cfg.Phys.ReadDir(DefaultQuarantineDir)
	if err != nil {
		return
	}
	var max uint64
	for _, name := range names {
		i := strings.LastIndexByte(name, '.')
		if i < 0 {
			continue
		}
		if seq, err := strconv.ParseUint(name[i+1:], 10, 64); err == nil && seq > max {
			max = seq
		}
	}
	s.qseq.Store(max)
}

// SweepQuarantine deletes quarantined files older than the configured TTL,
// returning how many it expired. A zero TTL never expires anything.
func (s *Server) SweepQuarantine() int {
	ttl := s.cfg.QuarantineTTL
	if ttl <= 0 {
		return 0
	}
	names, err := s.cfg.Phys.ReadDir(DefaultQuarantineDir)
	if err != nil {
		return 0
	}
	now := s.cfg.Clock()
	expired := 0
	for _, name := range names {
		p := DefaultQuarantineDir + "/" + name
		node, err := s.cfg.Phys.Lookup(p)
		if err != nil {
			continue
		}
		attr, err := s.cfg.Phys.Getattr(node)
		if err != nil || attr.Type == fs.TypeDir {
			continue
		}
		if now.Sub(attr.Mtime) <= ttl {
			continue
		}
		// Emptied before it goes: the moved content keeps its file's chunk
		// source (restoreLastCommitted), and an unlinked file keeps its
		// source for readers still holding it open, which the file system
		// cannot count — so the source's blob references would outlive the
		// expiry.
		if s.cfg.Phys.Truncate(node, 0) != nil {
			continue
		}
		if err := s.cfg.Phys.Remove(p, rootCred); err == nil {
			expired++
		}
	}
	if expired > 0 {
		s.cfg.Metrics.Counter("dlfm.quarantine.expired").Add(int64(expired))
	}
	return expired
}

// QuarantinedFiles lists the current quarantine directory (status tooling
// and tests).
func (s *Server) QuarantinedFiles() []string {
	names, err := s.cfg.Phys.ReadDir(DefaultQuarantineDir)
	if err != nil {
		return nil
	}
	return names
}
