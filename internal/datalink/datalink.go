// Package datalink defines the DATALINK SQL data type of the SQL/MED draft
// standard the paper builds on: a typed reference (URL) to an external file,
// together with the column control modes of Table 1 and the paper's two new
// update modes rfd and rdd.
package datalink

import (
	"errors"
	"fmt"
	"strings"
)

// Scheme is the URL scheme used by DataLinks file references.
const Scheme = "dlfs"

// IntegrityOpt says whether the DBMS guarantees referential integrity of the
// reference (the file cannot be removed/renamed while linked).
type IntegrityOpt uint8

// Integrity options: 'n' (none) and 'r' (referential integrity enforced).
const (
	IntegrityNone IntegrityOpt = iota + 1
	IntegrityRef
)

// AccessCtl says who controls a class of access to the linked file.
type AccessCtl uint8

// Access controllers: the file system ('f'), blocked entirely ('b'), or the
// DBMS ('d', token-gated).
const (
	CtlFS AccessCtl = iota + 1
	CtlBlocked
	CtlDBMS
)

func (c AccessCtl) letter() byte {
	switch c {
	case CtlFS:
		return 'f'
	case CtlBlocked:
		return 'b'
	case CtlDBMS:
		return 'd'
	default:
		return '?'
	}
}

// ControlMode is a three-attribute control mode: referential integrity,
// read access control, write access control (Table 1 plus §2.4's rfd, rdd).
type ControlMode struct {
	Integrity IntegrityOpt
	Read      AccessCtl // never CtlBlocked: "read access is never blocked"
	Write     AccessCtl
}

// The six valid control modes. NFF is "not really managed"; RFF adds
// referential integrity; RFB additionally blocks writes; RDB adds DB-managed
// reads; RFD and RDD are the paper's contribution: DB-managed update.
var (
	NFF = ControlMode{IntegrityNone, CtlFS, CtlFS}
	RFF = ControlMode{IntegrityRef, CtlFS, CtlFS}
	RFB = ControlMode{IntegrityRef, CtlFS, CtlBlocked}
	RDB = ControlMode{IntegrityRef, CtlDBMS, CtlBlocked}
	RFD = ControlMode{IntegrityRef, CtlFS, CtlDBMS}
	RDD = ControlMode{IntegrityRef, CtlDBMS, CtlDBMS}
)

// Modes lists every valid control mode in Table 1 order (extended).
var Modes = []ControlMode{NFF, RFF, RFB, RDB, RFD, RDD}

// String renders the three-letter mode name, e.g. "rdd".
func (m ControlMode) String() string {
	i := byte('n')
	if m.Integrity == IntegrityRef {
		i = 'r'
	}
	return string([]byte{i, m.Read.letter(), m.Write.letter()})
}

// ParseMode inverts String.
func ParseMode(s string) (ControlMode, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	for _, m := range Modes {
		if m.String() == s {
			return m, nil
		}
	}
	return ControlMode{}, fmt.Errorf("datalink: invalid control mode %q", s)
}

// Valid reports whether m is one of the six supported modes.
func (m ControlMode) Valid() bool {
	for _, v := range Modes {
		if m == v {
			return true
		}
	}
	return false
}

// FullControl reports whether the file is under full control of the database:
// neither read nor write access is controlled by the file system (§2.1).
// Under full control DLFM takes over file ownership at link time.
func (m ControlMode) FullControl() bool {
	return m.Read != CtlFS && m.Write != CtlFS
}

// Linked reports whether files in this mode are registered with DLFM at all.
func (m ControlMode) Linked() bool { return m.Integrity == IntegrityRef }

// WriteAllowed reports whether any write path exists (via FS or via token).
func (m ControlMode) WriteAllowed() bool { return m.Write != CtlBlocked }

// UpdateManaged reports whether this is one of the paper's update modes,
// where the DBMS manages in-place update (write tokens, update transactions).
func (m ControlMode) UpdateManaged() bool { return m.Write == CtlDBMS }

// ReadNeedsToken reports whether read opens require a DB-issued read token.
func (m ControlMode) ReadNeedsToken() bool { return m.Read == CtlDBMS }

// Link is a DATALINK value: a reference to an external file.
type Link struct {
	Server string // file server name, e.g. "fileserver1"
	Path   string // absolute path on that server, e.g. "/movies/clip1.mpg"
}

// Parse errors.
var (
	ErrBadURL = errors.New("datalink: malformed DATALINK URL")
)

// Parse decodes "dlfs://server/path" into a Link.
func Parse(url string) (Link, error) {
	rest, ok := strings.CutPrefix(url, Scheme+"://")
	if !ok {
		return Link{}, fmt.Errorf("%w: %q (want scheme %s)", ErrBadURL, url, Scheme)
	}
	slash := strings.Index(rest, "/")
	if slash <= 0 {
		return Link{}, fmt.Errorf("%w: %q (missing server or path)", ErrBadURL, url)
	}
	l := Link{Server: rest[:slash], Path: rest[slash:]}
	if l.Path == "/" {
		return Link{}, fmt.Errorf("%w: %q (empty path)", ErrBadURL, url)
	}
	return l, nil
}

// URL renders the link as a DATALINK URL.
func (l Link) URL() string { return Scheme + "://" + l.Server + l.Path }

// String implements fmt.Stringer.
func (l Link) String() string { return l.URL() }

// IsZero reports whether the link is unset (SQL NULL DATALINK).
func (l Link) IsZero() bool { return l.Server == "" && l.Path == "" }

// SQL/MED scalar functions (subset). DLURLCOMPLETE is produced by the engine
// because it embeds a freshly issued token; the pure-string ones live here.

// DLURLPath returns the path component with no token (DLURLPATHONLY).
func DLURLPath(l Link) string { return l.Path }

// DLURLServer returns the file server name (DLURLSERVER).
func DLURLServer(l Link) string { return l.Server }

// DLURLScheme returns the URL scheme (DLURLSCHEME).
func DLURLScheme(l Link) string { return Scheme }

// ColumnOptions carries the per-column DATALINK options a CREATE TABLE may
// specify (§2.1): the control mode, whether recovery (archiving/point-in-time
// restore) applies, and the write-token lifetime.
type ColumnOptions struct {
	Mode         ControlMode
	Recovery     bool // "RECOVERY YES": versions archived, restore supported
	TokenTTLSecs int  // expiry for issued tokens; 0 = authority default
}

// DefaultOptions is the mode used when a DATALINK column gives no options.
var DefaultOptions = ColumnOptions{Mode: RFB, Recovery: false}

// ParseColumnOptions decodes the option string accepted in CREATE TABLE,
// e.g. "MODE RDD RECOVERY YES TOKEN 300". Unknown words are rejected.
func ParseColumnOptions(s string) (ColumnOptions, error) {
	opts := DefaultOptions
	fields := strings.Fields(strings.ToUpper(s))
	for i := 0; i < len(fields); i++ {
		switch fields[i] {
		case "MODE":
			if i+1 >= len(fields) {
				return opts, errors.New("datalink: MODE needs a value")
			}
			m, err := ParseMode(fields[i+1])
			if err != nil {
				return opts, err
			}
			opts.Mode = m
			i++
		case "RECOVERY":
			if i+1 >= len(fields) {
				return opts, errors.New("datalink: RECOVERY needs YES or NO")
			}
			switch fields[i+1] {
			case "YES":
				opts.Recovery = true
			case "NO":
				opts.Recovery = false
			default:
				return opts, fmt.Errorf("datalink: RECOVERY %q not YES/NO", fields[i+1])
			}
			i++
		case "TOKEN":
			if i+1 >= len(fields) {
				return opts, errors.New("datalink: TOKEN needs a TTL in seconds")
			}
			var ttl int
			if _, err := fmt.Sscanf(fields[i+1], "%d", &ttl); err != nil || ttl <= 0 {
				return opts, fmt.Errorf("datalink: bad TOKEN TTL %q", fields[i+1])
			}
			opts.TokenTTLSecs = ttl
			i++
		default:
			return opts, fmt.Errorf("datalink: unknown column option %q", fields[i])
		}
	}
	return opts, nil
}
