//go:build !race

package token

const raceEnabled = false
