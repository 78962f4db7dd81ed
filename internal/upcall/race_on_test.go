//go:build race

package upcall

// raceEnabled: allocation budgets are skipped under the race detector, which
// allocates on its own account and makes sync.Pool drop items at random.
const raceEnabled = true
