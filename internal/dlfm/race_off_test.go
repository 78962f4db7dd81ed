//go:build !race

package dlfm

const raceEnabled = false
