//go:build race

package eval

// raceEnabled reports a -race build, whose instrumentation skews the
// relative speed of the numeric backends.
const raceEnabled = true
