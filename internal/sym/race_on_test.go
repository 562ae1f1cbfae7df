//go:build race

package sym

// raceEnabled lets allocation-count assertions stand down under the race
// detector, whose instrumentation allocates.
const raceEnabled = true
