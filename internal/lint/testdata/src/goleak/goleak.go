// Package goleak is the golden fixture for the goroutine-leak rule:
// go-spawned loops with no exit path, time.After armed per iteration,
// time.Tick's unstoppable ticker, and NewTimer/NewTicker results that are
// neither stopped nor handed to anyone. The clean functions pin the
// exemptions: done-channel cases, breaks that bind to the loop, channels
// the package itself closes, and timers that escape the function.
package goleak

import (
	"os"
	"runtime"
	"time"
)

// LeakyForever spawns a receive loop with no way out: the goroutine pins
// its stack and the channel for the process lifetime.
func LeakyForever(ch chan int) {
	go func() {
		for { // want goroutine-leak
			<-ch
		}
	}()
}

// LeakySelectLoop: neither select case leaves the loop.
func LeakySelectLoop(a, b chan int) {
	go func() {
		for { // want goroutine-leak
			select {
			case <-a:
			case <-b:
			}
		}
	}()
}

// InnerBreakDoesNotExit: the break binds to the select, not the for — the
// classic for-select typo.
func InnerBreakDoesNotExit(a chan int) {
	go func() {
		for { // want goroutine-leak
			select {
			case <-a:
				break
			}
		}
	}()
}

// CleanWithDone has a done case that returns.
func CleanWithDone(ch chan int, done chan struct{}) {
	go func() {
		for {
			select {
			case <-ch:
			case <-done:
				return
			}
		}
	}()
}

// CleanWithBreak: a top-level break leaves the loop.
func CleanWithBreak(ch chan int) {
	go func() {
		for {
			v, ok := <-ch
			if !ok {
				break
			}
			_ = v
		}
	}()
}

// CleanWithGoexit: runtime.Goexit ends the goroutine, so the loop has an
// exit the walker's terminal-call set knows.
func CleanWithGoexit(ch chan int) {
	go func() {
		for {
			if v := <-ch; v < 0 {
				runtime.Goexit()
			}
		}
	}()
}

// CleanWithExit: so does ending the process.
func CleanWithExit(ch chan int) {
	go func() {
		for {
			if v := <-ch; v < 0 {
				os.Exit(1)
			}
		}
	}()
}

// LeakyRange ranges a parameter channel no one in this package closes.
func LeakyRange(ch chan int) {
	go func() {
		for range ch { // want goroutine-leak
		}
	}()
}

// Source owns its channel and closes it in Stop, so ranging it has an exit
// path the loop body does not show.
type Source struct{ ch chan int }

// Start drains the source until Stop closes the channel.
func (s *Source) Start() {
	go func() {
		for range s.ch {
		}
	}()
}

// Stop ends the Start goroutine.
func (s *Source) Stop() { close(s.ch) }

// pump is a declared spawn target: the summary maps `go pump(ch)` back to
// this body and finds the exit-less loop here.
func pump(ch chan int) {
	for { // want goroutine-leak
		<-ch
	}
}

// StartPump spawns the declared function rather than a literal.
func StartPump(ch chan int) {
	go pump(ch)
}

// AfterInLoop arms a fresh unstoppable timer every iteration — the
// unbounded-growth classic in recv pumps with per-message timeouts.
func AfterInLoop(ch chan int, quit chan struct{}) {
	go func() {
		for {
			select {
			case <-ch:
			case <-time.After(time.Second): // want goroutine-leak
			case <-quit:
				return
			}
		}
	}()
}

// AfterInLoopClosure: a literal written inside a loop is called once per
// iteration, so its time.After is armed once per iteration too.
func AfterInLoopClosure(ch chan int, n int) {
	for i := 0; i < n; i++ {
		func() {
			select {
			case <-ch:
			case <-time.After(time.Second): // want goroutine-leak
			}
		}()
	}
}

// TickLeaks: time.Tick hands back a channel with no Stop handle at all.
func TickLeaks() <-chan time.Time {
	return time.Tick(time.Second) // want goroutine-leak
}

// TickerNeverStopped drains a few ticks and drops the ticker on the floor.
func TickerNeverStopped(n int) {
	t := time.NewTicker(time.Millisecond) // want goroutine-leak
	for i := 0; i < n; i++ {
		<-t.C
	}
}

// TickerStopped is the hygienic version.
func TickerStopped(n int) {
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for i := 0; i < n; i++ {
		<-t.C
	}
}

// NewDeadline escapes: the caller owns the timer and its Stop.
func NewDeadline(d time.Duration) *time.Timer {
	t := time.NewTimer(d)
	return t
}

// PassedToHelper escapes through a call argument; stopDeadline's Stop
// counts even though this function never names it.
func PassedToHelper(d time.Duration) {
	t := time.NewTimer(d)
	stopDeadline(t)
}

func stopDeadline(t *time.Timer) {
	if !t.Stop() {
		<-t.C
	}
}
