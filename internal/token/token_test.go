package token

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func fixedClock(t time.Time) func() time.Time { return func() time.Time { return t } }

func TestIssueValidateRoundTrip(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	a := NewAuthority([]byte("secret"), fixedClock(now), time.Minute)
	for _, typ := range []Type{Read, Write, Execute} {
		tok := a.Issue(typ, "/movies/clip.mpg")
		got, err := a.Validate(tok, "/movies/clip.mpg")
		if err != nil {
			t.Fatalf("validate %s token: %v", typ, err)
		}
		if got.Type != typ {
			t.Fatalf("type = %s, want %s", got.Type, typ)
		}
		if !got.Expiry.Equal(now.Add(time.Minute).Truncate(time.Second)) {
			t.Fatalf("expiry = %v", got.Expiry)
		}
	}
}

func TestValidateRejectsWrongPath(t *testing.T) {
	a := NewAuthority([]byte("secret"), nil, time.Minute)
	tok := a.Issue(Read, "/a/b")
	if _, err := a.Validate(tok, "/a/c"); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("wrong path = %v, want ErrBadMAC", err)
	}
}

func TestValidateRejectsForgedMAC(t *testing.T) {
	a := NewAuthority([]byte("secret"), nil, time.Minute)
	b := NewAuthority([]byte("other-key"), nil, time.Minute)
	tok := b.Issue(Write, "/a/b")
	if _, err := a.Validate(tok, "/a/b"); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("cross-key token = %v, want ErrBadMAC", err)
	}
}

func TestValidateRejectsExpired(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	clock := now
	a := NewAuthority([]byte("secret"), func() time.Time { return clock }, time.Minute)
	tok := a.Issue(Read, "/f")
	clock = now.Add(2 * time.Minute)
	if _, err := a.Validate(tok, "/f"); !errors.Is(err, ErrExpired) {
		t.Fatalf("expired token = %v, want ErrExpired", err)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	a := NewAuthority([]byte("secret"), nil, time.Minute)
	for _, bad := range []string{"", "r", "r:123", "z:123:abc", "r:notanumber:abc"} {
		if _, err := a.Validate(bad, "/f"); err == nil {
			t.Errorf("malformed %q accepted", bad)
		}
	}
}

func TestIssueWithTTL(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	a := NewAuthority([]byte("secret"), fixedClock(now), time.Minute)
	tok := a.IssueWithTTL(Read, "/f", time.Hour)
	got, err := a.Validate(tok, "/f")
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	if !got.Expiry.Equal(now.Add(time.Hour)) {
		t.Fatalf("expiry = %v, want +1h", got.Expiry)
	}
}

func TestCovers(t *testing.T) {
	cases := []struct {
		have, need Type
		want       bool
	}{
		{Read, Read, true},
		{Write, Write, true},
		{Write, Read, true}, // writers may read
		{Read, Write, false},
		{Execute, Read, false},
		{Read, Execute, false},
	}
	for _, c := range cases {
		if got := c.have.Covers(c.need); got != c.want {
			t.Errorf("%s covers %s = %v, want %v", c.have, c.need, got, c.want)
		}
	}
}

func TestEmbedExtract(t *testing.T) {
	name := Embed("/data/file.mpg", "r:123:abc")
	path, tok, ok := Extract(name)
	if !ok || path != "/data/file.mpg" || tok != "r:123:abc" {
		t.Fatalf("extract = %q, %q, %v", path, tok, ok)
	}
	// No token: pass-through.
	path, tok, ok = Extract("/plain/file")
	if ok || path != "/plain/file" || tok != "" {
		t.Fatalf("plain extract = %q, %q, %v", path, tok, ok)
	}
	// Empty token embeds to the bare name.
	if Embed("/f", "") != "/f" {
		t.Fatal("empty token should not alter name")
	}
}

func TestExtractUsesLastSeparator(t *testing.T) {
	// A malicious name embedding the separator twice must still validate
	// against the full prefix path.
	name := "/d/f" + Sep + "x" + Sep + "real"
	path, tok, ok := Extract(name)
	if !ok || tok != "real" || path != "/d/f"+Sep+"x" {
		t.Fatalf("extract = %q %q %v", path, tok, ok)
	}
}

// Property: tokens round-trip for arbitrary paths, and never validate against
// a different path.
func TestTokenPathBindingProperty(t *testing.T) {
	a := NewAuthority([]byte("k"), nil, time.Minute)
	prop := func(p1, p2 string) bool {
		tok := a.Issue(Read, p1)
		if _, err := a.Validate(tok, p1); err != nil {
			return false
		}
		if p1 != p2 {
			if _, err := a.Validate(tok, p2); err == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParseTypeRoundTrip(t *testing.T) {
	for _, typ := range []Type{Read, Write, Execute} {
		got, err := ParseType(typ.String())
		if err != nil || got != typ {
			t.Errorf("round trip %s: %v, %v", typ, got, err)
		}
	}
	if _, err := ParseType("q"); err == nil {
		t.Error("ParseType(q) should fail")
	}
}

// The pooled, reset-and-reused HMAC states must sign exactly what a fresh
// hmac.New over the canonical form does — every authority holding the key
// (and every token already issued) depends on it — from many goroutines at
// once.
func TestMacMatchesFreshHMAC(t *testing.T) {
	key := []byte("secret")
	a := NewAuthority(key, nil, time.Minute)
	want := func(typ Type, path string, expiry int64) string {
		h := hmac.New(sha256.New, key)
		fmt.Fprintf(h, "%s\x00%s\x00%d", typ, path, expiry)
		return hex.EncodeToString(h.Sum(nil)[:16])
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				typ, path, expiry := Type(i%3+1), fmt.Sprintf("/d/%d/f%d.bin", g, i), int64(1_700_000_000+i*g)
				if got := a.mac(typ, path, expiry); got != want(typ, path, expiry) {
					t.Errorf("mac(%s, %s, %d) = %s, want %s", typ, path, expiry, got, want(typ, path, expiry))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
