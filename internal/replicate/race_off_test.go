//go:build !race

package replicate

const raceEnabled = false
