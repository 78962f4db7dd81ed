// Package token implements the DataLinks access tokens of §4.1: HMAC-signed
// capabilities embedded in file names / URLs, with a type (read, write,
// execute), an expiry time, and the file path they authorize.
//
// The DataLinks engine generates tokens when a DATALINK column is selected;
// the DLFM upcall daemon validates them when DLFS presents them at fs_open.
// Both sides share a per-file-server secret key.
package token

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Type is the kind of access a token grants.
type Type uint8

// Token types. A Write token also authorizes reads (an updater may read the
// file it is rewriting); a Read token never authorizes writes.
const (
	Read Type = iota + 1
	Write
	Execute
)

// String returns "r", "w" or "x".
func (t Type) String() string {
	switch t {
	case Read:
		return "r"
	case Write:
		return "w"
	case Execute:
		return "x"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// ParseType inverts String.
func ParseType(s string) (Type, error) {
	if t, ok := parseType(s); ok {
		return t, nil
	}
	return 0, fmt.Errorf("token: unknown type %q", s)
}

func parseType(s string) (Type, bool) {
	switch s {
	case "r":
		return Read, true
	case "w":
		return Write, true
	case "x":
		return Execute, true
	}
	return 0, false
}

// Covers reports whether a token of type t authorizes access needing `need`.
func (t Type) Covers(need Type) bool {
	if t == need {
		return true
	}
	// Write tokens subsume read access.
	return t == Write && need == Read
}

// Token is a decoded access token.
type Token struct {
	Type   Type
	Path   string // server-relative file path the token authorizes
	Expiry time.Time
}

// Validation errors.
var (
	ErrBadToken  = errors.New("token: malformed token")
	ErrBadMAC    = errors.New("token: MAC verification failed")
	ErrExpired   = errors.New("token: expired")
	ErrWrongPath = errors.New("token: token does not authorize this path")
)

// Sep separates the path from the embedded token in a file name. Real
// DataLinks prefixes the file name with the token; a suffix keeps directory
// components intact and is equivalent for the protocol.
const Sep = ";dltoken="

// Authority issues and validates tokens for one file server. The zero value
// is unusable; construct with NewAuthority.
type Authority struct {
	clock func() time.Time
	ttl   time.Duration
	// macs pools keyed HMAC states: hmac.New hashes the key into two fresh
	// SHA-256 states on every call, Reset restores them for free.
	macs sync.Pool
}

// macState is one pooled HMAC plus the scratch its input and sum go through.
type macState struct {
	h   hash.Hash
	buf []byte
}

// DefaultTTL is the token lifetime used when none is configured.
const DefaultTTL = 5 * time.Minute

// NewAuthority creates a token authority with the given shared secret.
func NewAuthority(key []byte, clock func() time.Time, ttl time.Duration) *Authority {
	if clock == nil {
		clock = time.Now
	}
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	k := make([]byte, len(key))
	copy(k, key)
	a := &Authority{clock: clock, ttl: ttl}
	a.macs.New = func() any { return &macState{h: hmac.New(sha256.New, k)} }
	return a
}

// macLen is the length of a token's MAC: the first 16 bytes of the HMAC, in
// hex.
const macLen = 32

// mac computes the HMAC over the token's canonical form,
// "<type>\x00<path>\x00<expiry>", into hex.
func (a *Authority) mac(hexMAC *[macLen]byte, typ Type, path string, expiry int64) {
	st := a.macs.Get().(*macState)
	defer a.macs.Put(st)
	b := append(st.buf[:0], typ.String()...)
	b = append(b, 0)
	b = append(b, path...)
	b = append(b, 0)
	b = strconv.AppendInt(b, expiry, 10)
	st.h.Reset()
	st.h.Write(b)
	n := len(b)
	b = st.h.Sum(b)
	st.buf = b
	hex.Encode(hexMAC[:], b[n:n+macLen/2])
}

// Issue creates a signed token string authorizing `typ` access to path.
// Format: <type>:<expiry-unix>:<mac>.
func (a *Authority) Issue(typ Type, path string) string {
	return a.IssueWithTTL(typ, path, a.ttl)
}

// IssueWithTTL creates a token with a caller-chosen lifetime.
func (a *Authority) IssueWithTTL(typ Type, path string, ttl time.Duration) string {
	var buf [tokenMax]byte
	return string(a.AppendIssue(buf[:0], typ, path, ttl))
}

// AppendIssue appends to dst the token IssueWithTTL would return, so a caller
// can build the token into a larger string, such as the URL it rides on,
// without allocating the token on its own.
func (a *Authority) AppendIssue(dst []byte, typ Type, path string, ttl time.Duration) []byte {
	expiry := a.clock().Add(ttl).Unix()
	var sum [macLen]byte
	a.mac(&sum, typ, path, expiry)
	dst = append(dst, typ.String()...)
	dst = append(dst, ':')
	dst = strconv.AppendInt(dst, expiry, 10)
	dst = append(dst, ':')
	return append(dst, sum[:]...)
}

// tokenMax bounds a token's length: a one-letter type, a signed 64-bit
// expiry, two colons and the MAC.
const tokenMax = 1 + 1 + 20 + 1 + macLen

// TTL returns the lifetime Issue gives a token.
func (a *Authority) TTL() time.Duration { return a.ttl }

// Validate checks a token string against the path it is being used for and
// returns the decoded token. It allocates nothing.
func (a *Authority) Validate(tok, path string) (Token, error) {
	typStr, rest, ok1 := strings.Cut(tok, ":")
	expStr, macStr, ok2 := strings.Cut(rest, ":")
	if !ok1 || !ok2 {
		return Token{}, ErrBadToken
	}
	typ, ok := parseType(typStr)
	if !ok {
		return Token{}, ErrBadToken
	}
	expiry, err := strconv.ParseInt(expStr, 10, 64)
	if err != nil {
		return Token{}, ErrBadToken
	}
	// One encoding only: "+1060" and "01060" parse to the 1060 Issue writes,
	// but only "1060" is that token.
	var canon [20]byte
	if string(strconv.AppendInt(canon[:0], expiry, 10)) != expStr {
		return Token{}, ErrBadToken
	}
	var want, got [macLen]byte
	a.mac(&want, typ, path, expiry)
	if len(macStr) != macLen || !hmac.Equal(want[:], got[:copy(got[:], macStr)]) {
		// Distinguish wrong-path from forged-MAC only as far as telling the
		// caller validation failed; both are rejections.
		return Token{}, ErrBadMAC
	}
	exp := time.Unix(expiry, 0)
	if a.clock().After(exp) {
		return Token{}, ErrExpired
	}
	return Token{Type: typ, Path: path, Expiry: exp}, nil
}

// Embed attaches a token to a file name for transport through the standard
// file system API (the application opens "name;dltoken=...").
func Embed(name, tok string) string {
	if tok == "" {
		return name
	}
	return name + Sep + tok
}

// Extract splits an embedded token from a file name. ok is false when the
// name carries no token.
func Extract(name string) (path, tok string, ok bool) {
	i := strings.LastIndex(name, Sep)
	if i < 0 {
		return name, "", false
	}
	return name[:i], name[i+len(Sep):], true
}
