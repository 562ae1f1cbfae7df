//go:build race

package core

// raceEnabled lets allocation assertions stand down under the race
// detector, whose instrumentation allocates and whose sync.Pool drops
// some of what is put back.
const raceEnabled = true
