//go:build race

package verify

// raceEnabled reports whether the race detector is compiled in. The gxhc
// StaleReady and reduce EarlyReady mutants inject genuine data races;
// under the detector they would abort the process instead of failing a
// comparison, so the self-test skips them (the abort itself would be a
// detection, just not one a test can assert on).
const raceEnabled = true
