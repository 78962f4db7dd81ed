//go:build race

package obs

// raceEnabled: allocation budgets are skipped under the race detector, which
// allocates on its own account.
const raceEnabled = true
