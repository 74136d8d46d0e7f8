//go:build !race

package extracts

const raceEnabled = false
