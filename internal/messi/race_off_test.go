//go:build !race

package messi

const raceEnabled = false
