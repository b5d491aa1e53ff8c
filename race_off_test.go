//go:build !race

package dsidx_test

const raceEnabled = false
