//go:build race

package lint

// raceEnabled lets TestLintRuntimeBudget skip under the race detector,
// whose instrumentation inflates the scan ~5x past the non-race budget.
const raceEnabled = true
