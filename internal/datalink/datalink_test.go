package datalink

import (
	"testing"
	"testing/quick"
)

func TestModeStringRoundTrip(t *testing.T) {
	names := []string{"nff", "rff", "rfb", "rdb", "rfd", "rdd"}
	for i, m := range Modes {
		if m.String() != names[i] {
			t.Errorf("mode %d string = %s, want %s", i, m, names[i])
		}
		parsed, err := ParseMode(names[i])
		if err != nil || parsed != m {
			t.Errorf("parse %s = %v, %v", names[i], parsed, err)
		}
	}
	if _, err := ParseMode("zzz"); err == nil {
		t.Error("ParseMode(zzz) should fail")
	}
	if _, err := ParseMode("rbb"); err == nil {
		t.Error("rbb is invalid (read access is never blocked)")
	}
}

// TestTable1 checks the exact semantics of Table 1 of the paper, extended
// with the two new update modes.
func TestTable1(t *testing.T) {
	cases := []struct {
		mode          ControlMode
		integrity     bool
		readByDBMS    bool
		writeAllowed  bool
		updateManaged bool
		fullControl   bool
	}{
		{NFF, false, false, true, false, false},
		{RFF, true, false, true, false, false},
		{RFB, true, false, false, false, false},
		{RDB, true, true, false, false, true},
		{RFD, true, false, true, true, false},
		{RDD, true, true, true, true, true},
	}
	for _, c := range cases {
		if got := c.mode.Linked(); got != c.integrity {
			t.Errorf("%s Linked = %v, want %v", c.mode, got, c.integrity)
		}
		if got := c.mode.ReadNeedsToken(); got != c.readByDBMS {
			t.Errorf("%s ReadNeedsToken = %v, want %v", c.mode, got, c.readByDBMS)
		}
		if got := c.mode.WriteAllowed(); got != c.writeAllowed {
			t.Errorf("%s WriteAllowed = %v, want %v", c.mode, got, c.writeAllowed)
		}
		if got := c.mode.UpdateManaged(); got != c.updateManaged {
			t.Errorf("%s UpdateManaged = %v, want %v", c.mode, got, c.updateManaged)
		}
		if got := c.mode.FullControl(); got != c.fullControl {
			t.Errorf("%s FullControl = %v, want %v", c.mode, got, c.fullControl)
		}
	}
}

func TestParseURL(t *testing.T) {
	l, err := Parse("dlfs://server1/movies/clip.mpg")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if l.Server != "server1" || l.Path != "/movies/clip.mpg" {
		t.Fatalf("link = %+v", l)
	}
	if l.URL() != "dlfs://server1/movies/clip.mpg" {
		t.Fatalf("url round trip = %s", l.URL())
	}
}

func TestParseURLErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"http://server/p",
		"dlfs://",
		"dlfs://server",
		"dlfs://server/",
		"dlfs:///path",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestScalarHelpers(t *testing.T) {
	l, err := Parse("dlfs://fsrv/a/b.txt")
	if err != nil {
		t.Fatal(err)
	}
	if DLURLPath(l) != "/a/b.txt" {
		t.Errorf("DLURLPath = %s", DLURLPath(l))
	}
	if DLURLServer(l) != "fsrv" {
		t.Errorf("DLURLServer = %s", DLURLServer(l))
	}
	if DLURLScheme(l) != "dlfs" {
		t.Errorf("DLURLScheme = %s", DLURLScheme(l))
	}
	if l.IsZero() {
		t.Error("parsed link should not be zero")
	}
	if !(Link{}).IsZero() {
		t.Error("zero link should be zero")
	}
}

func TestParseColumnOptions(t *testing.T) {
	opts, err := ParseColumnOptions("MODE RDD RECOVERY YES TOKEN 300")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if opts.Mode != RDD || !opts.Recovery || opts.TokenTTLSecs != 300 {
		t.Fatalf("opts = %+v", opts)
	}
	opts, err = ParseColumnOptions("MODE RFB RECOVERY NO")
	if err != nil || opts.Mode != RFB || opts.Recovery {
		t.Fatalf("opts = %+v, %v", opts, err)
	}
	// Defaults.
	opts, err = ParseColumnOptions("")
	if err != nil || opts != DefaultOptions {
		t.Fatalf("empty opts = %+v, %v", opts, err)
	}
	for _, bad := range []string{"MODE", "MODE XYZ", "RECOVERY", "RECOVERY MAYBE", "TOKEN", "TOKEN x", "FROBNICATE"} {
		if _, err := ParseColumnOptions(bad); err == nil {
			t.Errorf("ParseColumnOptions(%q) should fail", bad)
		}
	}
}

// Property: URL formatting and parsing are inverse for well-formed links.
func TestURLRoundTripProperty(t *testing.T) {
	prop := func(server, path string) bool {
		// Constrain to the charset a real deployment uses.
		if server == "" || path == "" {
			return true
		}
		for _, r := range server {
			if r == '/' || r < 33 || r > 126 {
				return true
			}
		}
		for _, r := range path {
			if r < 33 || r > 126 {
				return true
			}
		}
		l := Link{Server: server, Path: "/" + path}
		got, err := Parse(l.URL())
		return err == nil && got == l
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
