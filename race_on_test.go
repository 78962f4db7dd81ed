//go:build race

package datalinks_test

// raceEnabled: allocation budgets are skipped under the race detector, which
// allocates on its own account.
const raceEnabled = true
