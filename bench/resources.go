package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is a point-in-time reading of what the process has consumed.
type usage struct {
	cpu        time.Duration // user + system
	allocBytes uint64
	mallocs    uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{cpu: tv(ru.Utime) + tv(ru.Stime), allocBytes: ms.TotalAlloc, mallocs: ms.Mallocs}
}

func (u usage) add(o usage) usage {
	return usage{cpu: u.cpu + o.cpu, allocBytes: u.allocBytes + o.allocBytes, mallocs: u.mallocs + o.mallocs}
}

func (u usage) sub(before usage) usage {
	return usage{cpu: u.cpu - before.cpu, allocBytes: u.allocBytes - before.allocBytes, mallocs: u.mallocs - before.mallocs}
}

// resetPeakRSS asks the kernel to restart the process's resident-set high
// water mark, so each workload of a full run reports its own peak. Where the
// kernel refuses, peakRSSMiB keeps reporting the peak since process start.
func resetPeakRSS() {
	debug.FreeOSMemory() // or the previous workload's garbage would still be resident
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads VmHWM, falling back to getrusage's maximum.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) > 0 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}
