//go:build race

package sqlmini

// raceEnabled: allocation comparisons are skipped under the race detector,
// which makes sync.Pool (fmt's buffers) drop items at random.
const raceEnabled = true
