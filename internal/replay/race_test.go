//go:build race

package replay

const raceEnabled = true
