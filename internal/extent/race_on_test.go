//go:build race

package extent

// raceEnabled: allocation budgets are skipped under the race detector, which
// allocates on its own account and drops a share of what sync.Pool is given.
const raceEnabled = true
