package core

import (
	"context"
	"fmt"

	"datalinks/internal/fs"
	"datalinks/internal/obs"
	"datalinks/internal/token"
)

// ClusterSession is an application identity working against a scale-out
// deployment. Opens resolve the path's current owner through the router; if
// a migration lands between routing and the open (the open reaches a member
// the path just left), the open retries once against the new owner — the
// same URL, the same token, a different member.
type ClusterSession struct {
	c    *Cluster
	cred fs.Cred
}

// NewSession returns a cluster session with the given uid.
func (c *Cluster) NewSession(uid fs.UID) *ClusterSession {
	return &ClusterSession{c: c, cred: fs.Cred{UID: uid}}
}

// Cred returns the session's credentials.
func (s *ClusterSession) Cred() fs.Cred { return s.cred }

func (s *ClusterSession) open(url string, mode fs.AccessMode) (*File, error) {
	server, name, err := SplitURL(url)
	if err != nil {
		return nil, err
	}
	if server != clusterAuthority {
		return nil, fmt.Errorf("core: URL authority %q is not this cluster (%q)", server, clusterAuthority)
	}
	cleanPath, _, _ := token.Extract(name)
	var lastErr error
	var lastOwner *FileServer
	for attempt := 0; attempt < 2; attempt++ {
		m, err := s.c.router.owner(cleanPath)
		if err != nil {
			return nil, err
		}
		if attempt > 0 && m == lastOwner {
			// Ownership did not change; the first error was real.
			return nil, lastErr
		}
		tr := m.Obs.Start("open")
		root := tr.Root()
		root.SetAttr("path", cleanPath)
		root.SetAttr("server", m.Name)
		if attempt > 0 {
			// The first owner rejected the open because the path migrated
			// away mid-flight; this attempt followed the ring forward.
			root.SetAttr("ring_forwarded", true)
		}
		fd, err := m.LFS.OpenCtx(obs.ContextWithSpan(context.Background(), root), s.cred, name, mode)
		if err != nil {
			root.SetAttr("error", err.Error())
		}
		tr.Finish()
		if err == nil {
			return &File{srv: m, path: cleanPath, fd: fd, write: mode&fs.AccessWrite != 0}, nil
		}
		lastErr, lastOwner = err, m
	}
	return nil, lastErr
}

// OpenRead opens a linked file for reading (URL from DLURLCOMPLETE).
func (s *ClusterSession) OpenRead(url string) (*File, error) { return s.open(url, fs.AccessRead) }

// OpenWrite begins an in-place update transaction (URL from
// DLURLCOMPLETEWRITE).
func (s *ClusterSession) OpenWrite(url string) (*File, error) { return s.open(url, fs.ReadWrite) }
