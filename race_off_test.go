//go:build !race

package datalinks_test

const raceEnabled = false
