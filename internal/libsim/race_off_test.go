//go:build !race

package libsim

const raceEnabled = false
