//go:build !race

package queries

const raceEnabled = false
