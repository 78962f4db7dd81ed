package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
)

// environment records where a result set was measured; numbers from two
// different environments are not comparable.
type environment struct {
	GitCommit     string  `json:"git_commit"`
	GoVersion     string  `json:"go_version"`
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	RunDir        string  `json:"run_dir"`
	RunDirFS      string  `json:"run_dir_fs"`
	Seed          int64   `json:"seed"`
	WindowS       float64 `json:"window_s"`
	WarmupS       float64 `json:"warmup_s"`
	TracedWindowS float64 `json:"traced_window_s"`
	// The two device probes, repeated here so a reader can convert
	// fsyncs-per-commit into a device estimate without the probe table.
	DeviceFdatasyncUS       float64 `json:"device_fdatasync_us"`
	RunDirDeviceFdatasyncUS float64 `json:"rundir_fdatasync_us"`
}

// outDir is where the benchmark leaves its own files (trace dumps, the
// on-disk fallback of the run dir): bench/out, whether started from the
// repository root or from bench/ itself.
func outDir() string {
	if _, err := os.Stat("bench/go.mod"); err == nil {
		return "bench/out"
	}
	return "out"
}

// gitCommit reads the revision the toolchain stamped into the binary; a
// checkout that is not a git repository has none.
func gitCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// fsNames maps statfs magic numbers to the names `df -T` would print.
var fsNames = map[int64]string{
	0x01021994: "tmpfs",
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

func freeBytes(dir string) (int64, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return 0, err
	}
	return int64(st.Bavail) * st.Bsize, nil
}

func newEnvironment(o options, tracedWindow float64) environment {
	return environment{
		GitCommit:     gitCommit(),
		GoVersion:     runtime.Version(),
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		RunDir:        o.dir,
		RunDirFS:      fsType(o.dir),
		Seed:          o.seed,
		WindowS:       o.window.Seconds(),
		WarmupS:       o.warmup().Seconds(),
		TracedWindowS: tracedWindow,
	}
}
