//go:build !race

package chunkdisk

const raceEnabled = false
