//go:build race

package replicate

const raceEnabled = true
