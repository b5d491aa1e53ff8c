//go:build race

package dsidx_test

// raceEnabled: under the race detector sync.Pool drops a share of what is
// put back, so pooled scratch is reallocated and allocation counts are not
// the production ones.
const raceEnabled = true
