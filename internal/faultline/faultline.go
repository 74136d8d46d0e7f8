// Package faultline is a seeded, schedule-driven fault injector for the
// repo's four substrates: the in-process MPI runtime (internal/mpi), the
// staging wire (internal/fabric), the file-I/O model (internal/iosim), and
// the cross-process world layer (internal/world).
//
// The discipline is deterministic-simulation testing in the Jepsen /
// FoundationDB tradition: every fault a run experiences is named by a
// compact, human-readable schedule string
//
//	<seed>:<domain>.<kind>(k=v,...);<domain>.<kind>(...)
//
// that parses back to the identical schedule, so any failure observed under
// injection is replayed — not re-rolled — by exporting
// GOSENSEI_FAULT_SCHEDULE=<seed:spec> and re-running the test. Schedules are
// either written by hand or, in the tests, drawn from a seeded generator
// (Generate), and a running schedule records which faults actually fired
// (Trace) so two replays of the same schedule can be diffed.
//
// Faults are indexed by deterministic per-rank counters (the n-th message on
// an edge, the n-th write on a connection, the n-th block-file attempt), not
// by wall-clock time, which is what makes a schedule replayable. The hooks
// in the substrates are nil-checked pointers: a world, connection, or writer
// with no injector configured takes the exact pre-faultline code path.
//
// Tolerated vs fatal: every fault kind except mpi.crash and world.rankkill
// is tolerated by contract — the stack must produce bit-identical analysis
// results under it (the metamorphic property the end-to-end suite asserts).
// mpi.crash and world.rankkill are fatal by contract: the run must fail, but
// it must fail identically on every replay — rankkill is the cross-process
// twin of crash, killing a whole rank process (no EOS, connections torn down
// mid-protocol) so peers exercise the death-detection path.
package faultline

import (
	"fmt"
	"strconv"
	"strings"
)

// kindArgs names every fault kind and the canonical order of its integer
// arguments. Durations are milliseconds ("ms"); counters are 1-based.
var kindArgs = map[string][]string{
	// mpi: per-edge message faults (msg = 1-based message index on the
	// src->dst world-rank edge) and per-rank op faults (op = 1-based send
	// count of the rank).
	"mpi.delay":   {"src", "dst", "msg", "ms"}, // sender sleeps before delivery
	"mpi.dup":     {"src", "dst", "msg"},       // message delivered twice
	"mpi.reorder": {"src", "dst", "msg"},       // jumps ahead of other senders' queued messages
	"mpi.stall":   {"rank", "op", "ms"},        // rank sleeps before its op-th send
	"mpi.crash":   {"rank", "op"},              // rank panics at its op-th send (FATAL)

	// fabric: per-writer-rank connection faults, indexed by cumulative
	// counters that keep counting across reconnects.
	"fabric.kill":      {"rank", "write"},      // conn closed at the write-th write
	"fabric.short":     {"rank", "write"},      // half the frame hits the wire, then the conn dies
	"fabric.blackhole": {"rank", "write", "n"}, // n writes vanish "successfully", then the conn dies
	"fabric.hsdrop":    {"rank", "dial"},       // the dial-th handshake is dropped
	"fabric.blackout":  {"rank", "read", "ms"}, // the read-th read stalls for ms

	// world: cross-process rank faults, indexed by the rank's 1-based wire
	// send count (sends to a rank's own mailbox stay local and do not
	// count, so op indices are transport-level and replayable).
	"world.rankkill": {"rank", "op"}, // rank dies at its op-th wire send (FATAL)

	// io: per-rank block-file faults, indexed by cumulative attempt
	// counters (retries count as attempts).
	"io.enospc":    {"rank", "op", "n"},  // n consecutive write attempts fail like a full OST
	"io.shortread": {"rank", "op"},       // the op-th read attempt sees a truncated file
	"io.fsync":     {"rank", "op", "ms"}, // the op-th write attempt stalls for ms (fsync spike)
}

// Fault is one injected event. Args follow the canonical order in kindArgs.
type Fault struct {
	Domain string // "mpi", "fabric", "io"
	Kind   string // e.g. "delay", "kill", "enospc"
	Args   []int
}

// Name returns the qualified kind, e.g. "mpi.delay".
func (f Fault) Name() string { return f.Domain + "." + f.Kind }

// arg returns the named argument; it panics on an unknown name, which is a
// programming error (Parse validates every fault against kindArgs).
func (f Fault) arg(name string) int {
	for i, n := range kindArgs[f.Name()] {
		if n == name {
			return f.Args[i]
		}
	}
	panic(fmt.Sprintf("faultline: fault %s has no argument %q", f.Name(), name))
}

// String renders the canonical form, e.g. "mpi.delay(src=0,dst=1,msg=3,ms=2)".
func (f Fault) String() string {
	var b strings.Builder
	b.WriteString(f.Name())
	b.WriteByte('(')
	for i, n := range kindArgs[f.Name()] {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(strconv.Itoa(f.Args[i]))
	}
	b.WriteByte(')')
	return b.String()
}

// Schedule is a seed plus an ordered fault list. The zero fault list is a
// valid (fault-free) schedule.
type Schedule struct {
	Seed   int64
	Faults []Fault
}

// String renders the canonical "<seed>:<fault>;<fault>" form; Parse is its
// exact inverse, so String output is the replay token tests print on
// failure.
func (s *Schedule) String() string {
	parts := make([]string, len(s.Faults))
	for i, f := range s.Faults {
		parts[i] = f.String()
	}
	return strconv.FormatInt(s.Seed, 10) + ":" + strings.Join(parts, ";")
}

// Parse decodes a canonical schedule string. It is strict: argument names
// must appear in canonical order, so Parse(s.String()) round-trips and two
// textually different schedules are genuinely different.
func Parse(spec string) (*Schedule, error) {
	seedStr, rest, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("faultline: schedule %q has no seed separator ':'", spec)
	}
	seed, err := strconv.ParseInt(seedStr, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("faultline: schedule seed %q: %w", seedStr, err)
	}
	s := &Schedule{Seed: seed}
	if rest == "" {
		return s, nil
	}
	for _, part := range strings.Split(rest, ";") {
		f, err := parseFault(part)
		if err != nil {
			return nil, err
		}
		s.Faults = append(s.Faults, f)
	}
	return s, nil
}

func parseFault(part string) (Fault, error) {
	name, argsStr, ok := strings.Cut(part, "(")
	if !ok || !strings.HasSuffix(argsStr, ")") {
		return Fault{}, fmt.Errorf("faultline: fault %q: want name(args)", part)
	}
	argsStr = strings.TrimSuffix(argsStr, ")")
	names, known := kindArgs[name]
	if !known {
		return Fault{}, fmt.Errorf("faultline: unknown fault kind %q", name)
	}
	domain, kind, _ := strings.Cut(name, ".")
	f := Fault{Domain: domain, Kind: kind}
	fields := strings.Split(argsStr, ",")
	if len(fields) != len(names) {
		return Fault{}, fmt.Errorf("faultline: fault %q: want %d args %v, got %d", part, len(names), names, len(fields))
	}
	for i, field := range fields {
		k, v, ok := strings.Cut(field, "=")
		if !ok || k != names[i] {
			return Fault{}, fmt.Errorf("faultline: fault %q: arg %d must be %s=<int>", part, i, names[i])
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return Fault{}, fmt.Errorf("faultline: fault %q: arg %s: %w", part, k, err)
		}
		if n < 0 {
			return Fault{}, fmt.Errorf("faultline: fault %q: arg %s must be non-negative", part, k)
		}
		f.Args = append(f.Args, n)
	}
	return f, nil
}
