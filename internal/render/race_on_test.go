//go:build race

package render

const raceEnabled = true
