package core

import (
	"testing"

	"datalinks/internal/datalink"
	"datalinks/internal/token"
)

// embedName is how the name handed to the file system used to be built:
// the parsed path with the token embedded again.
func embedName(url string) (server, name string, err error) {
	clean, tok, hasTok := token.Extract(url)
	l, err := datalink.Parse(clean)
	if err != nil {
		return "", "", err
	}
	name = l.Path
	if hasTok {
		name = token.Embed(l.Path, tok)
	}
	return l.Server, name, nil
}

// SplitURL's name is a slice of the URL, and it equals the name built by
// embedding the token into the parsed path.
func TestSplitURLSlicesTheName(t *testing.T) {
	for _, tc := range []struct {
		url, server, name string
	}{
		{"dlfs://fs1/movies/clip1.mpg", "fs1", "/movies/clip1.mpg"},
		{"dlfs://fs1/movies/clip1.mpg;dltoken=r:1700000300:0123abcd", "fs1", "/movies/clip1.mpg;dltoken=r:1700000300:0123abcd"},
		{"dlfs://fs2/a;dltoken=x/b.bin;dltoken=w:17:ff", "fs2", "/a;dltoken=x/b.bin;dltoken=w:17:ff"},
		{"dlfs://fs1/a.bin;dltoken=", "fs1", "/a.bin"},
		{"dlfs://fs1/a.bin;dltoken=;dltoken=r:1:2", "fs1", "/a.bin;dltoken=;dltoken=r:1:2"},
		{"http://fs1/a.bin", "", ""},
		{"dlfs://fs1", "", ""},
		{"dlfs:///a.bin;dltoken=r:1:2", "", ""},
		{"dlfs://fs1/;dltoken=r:1:2", "", ""},
		{"dlfs://fs1;dltoken=r:1:2/a.bin", "", ""},
	} {
		server, name, err := SplitURL(tc.url)
		wantServer, wantName, wantErr := embedName(tc.url)
		if (err == nil) != (wantErr == nil) || server != wantServer || name != wantName {
			t.Fatalf("SplitURL(%q) = %q, %q, %v; the embedded name is %q, %q, %v", tc.url, server, name, err, wantServer, wantName, wantErr)
		}
		if tc.name == "" {
			if err == nil {
				t.Fatalf("SplitURL(%q) accepted a malformed URL", tc.url)
			}
			continue
		}
		if err != nil || server != tc.server || name != tc.name {
			t.Fatalf("SplitURL(%q) = %q, %q, %v; want %q, %q", tc.url, server, name, err, tc.server, tc.name)
		}
		if raceEnabled {
			continue
		}
		if n := testing.AllocsPerRun(100, func() { SplitURL(tc.url) }); n != 0 {
			t.Fatalf("SplitURL(%q): %.0f mallocs, want 0", tc.url, n)
		}
	}
}
