//go:build !race

package upcall

const raceEnabled = false
