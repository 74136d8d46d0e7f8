package iosim

import (
	"errors"
	"time"

	"gosensei/internal/faultline"
)

// ErrNoSpace is the error injected write attempts fail with — the ENOSPC a
// full OST returns on a real parallel filesystem.
var ErrNoSpace = errors.New("iosim: injected ENOSPC (no space left on device)")

// FaultInjector is consulted once per block-file attempt, keyed by the block
// rank; the block-file functions take one as their last argument, and nil
// injects nothing. Implementations must be safe for concurrent use (ranks
// write in parallel). A run's *faultline.IOPlan is one, and a nil plan — a
// run that schedules no io faults — answers every attempt with no fault.
type FaultInjector interface {
	BlockWrite(rank int) faultline.FaultAction
	BlockRead(rank int) faultline.FaultAction
}

// sleepFor stalls an attempt; a named helper because the block-file
// functions shadow the time package with their simulation-time parameter.
func sleepFor(d time.Duration) { time.Sleep(d) }

// maxBlockAttempts bounds the retry loop around one block-file operation.
// Injected failures burn attempts; a schedule that keeps consecutive
// failures below the budget is tolerated by contract (the block lands and
// the analysis output is unchanged), one that exhausts it is a hard error.
const maxBlockAttempts = 4
