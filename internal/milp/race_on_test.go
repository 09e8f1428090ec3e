//go:build race

package milp_test

// raceEnabled reports that this test binary was built with the race
// detector, whose instrumentation makes the paper-scale corpora slow.
const raceEnabled = true
