//go:build race

package tuning

// raceEnabled reports whether the race detector instrumented this
// build; allocation-count tests skip under it.
const raceEnabled = true
