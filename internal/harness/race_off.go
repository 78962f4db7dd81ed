//go:build !race

package harness

// raceEnabled reports whether the binary was built with the race detector
// (see timingGate).
const raceEnabled = false
