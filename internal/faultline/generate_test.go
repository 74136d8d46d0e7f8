package faultline

import (
	"fmt"
	"math/rand"
	"strings"
)

// Fatal reports whether the fault is fatal by contract: the run is expected
// to fail (deterministically) rather than tolerate it.
func (f Fault) Fatal() bool {
	return f.Name() == "mpi.crash" || f.Name() == "world.rankkill"
}

// Fatal reports whether any fault in the schedule is fatal by contract.
func (s *Schedule) Fatal() bool {
	for _, f := range s.Faults {
		if f.Fatal() {
			return true
		}
	}
	return false
}

// Menu bounds what Generate may draw: which substrates to hit and the
// geometry (world size, step count) that keeps generated counter indices in
// the range a pipeline actually reaches — a fault indexed past the run's
// last event never fires, which is legal but useless.
type Menu struct {
	MPI, Fabric, IO bool
	// Ranks is the world size (>= 2 when MPI is enabled: edge faults need
	// two distinct ranks). Steps is the pipeline's step count.
	Ranks, Steps int
	// MaxFaults caps the faults per schedule; 0 means 4. Generate draws
	// between 2 and MaxFaults.
	MaxFaults int
}

// Generate draws a seeded, tolerated-only schedule from the menu: same seed
// and menu, same schedule, on every platform. Fatal kinds (mpi.crash,
// world.rankkill) are never generated — they are for hand-written schedules
// that assert deterministic failure.
func Generate(seed int64, m Menu) *Schedule {
	if m.Ranks < 2 || m.Steps < 1 {
		panic(fmt.Sprintf("faultline: menu needs ranks>=2 and steps>=1, got ranks=%d steps=%d", m.Ranks, m.Steps))
	}
	var kinds []string
	if m.MPI {
		kinds = append(kinds, "mpi.delay", "mpi.dup", "mpi.reorder", "mpi.stall")
	}
	if m.Fabric {
		kinds = append(kinds, "fabric.kill", "fabric.short", "fabric.blackhole", "fabric.hsdrop", "fabric.blackout")
	}
	if m.IO {
		kinds = append(kinds, "io.enospc", "io.shortread", "io.fsync")
	}
	if len(kinds) == 0 {
		panic("faultline: menu enables no fault domain")
	}
	maxFaults := m.MaxFaults
	if maxFaults == 0 {
		maxFaults = 4
	}
	if maxFaults < 2 {
		maxFaults = 2
	}
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(maxFaults-1)
	s := &Schedule{Seed: seed}
	for i := 0; i < n; i++ {
		s.Faults = append(s.Faults, genFault(rng, kinds[rng.Intn(len(kinds))], m))
	}
	return s
}

func genFault(rng *rand.Rand, name string, m Menu) Fault {
	domain, kind, _ := strings.Cut(name, ".")
	f := Fault{Domain: domain, Kind: kind}
	// Argument ranges are chosen so the pipeline's cumulative counters
	// always pass the generated index (every fault fires exactly once):
	// each rank sends well over Steps messages per run, each fabric conn
	// sees at least Hello + Steps data frames + EOS writes and as many
	// reads (Welcome + one Release per message), and each io rank makes at
	// least Steps write and read attempts.
	rank := rng.Intn(m.Ranks)
	switch name {
	case "mpi.delay":
		dst := (rank + 1 + rng.Intn(m.Ranks-1)) % m.Ranks
		f.Args = []int{rank, dst, 1 + rng.Intn(m.Steps*4), 1 + rng.Intn(3)}
	case "mpi.dup", "mpi.reorder":
		dst := (rank + 1 + rng.Intn(m.Ranks-1)) % m.Ranks
		f.Args = []int{rank, dst, 1 + rng.Intn(m.Steps*4)}
	case "mpi.stall":
		f.Args = []int{rank, 1 + rng.Intn(m.Steps*4), 1 + rng.Intn(3)}
	case "fabric.kill", "fabric.short":
		f.Args = []int{rank, 2 + rng.Intn(m.Steps+1)}
	case "fabric.blackhole":
		f.Args = []int{rank, 2 + rng.Intn(m.Steps), 1 + rng.Intn(2)}
	case "fabric.hsdrop":
		f.Args = []int{rank, 1}
	case "fabric.blackout":
		f.Args = []int{rank, 1 + rng.Intn(m.Steps+1), 1 + rng.Intn(5)}
	case "io.enospc":
		f.Args = []int{rank, 1 + rng.Intn(m.Steps), 1 + rng.Intn(2)}
	case "io.shortread":
		f.Args = []int{rank, 1 + rng.Intn(m.Steps)}
	case "io.fsync":
		f.Args = []int{rank, 1 + rng.Intn(m.Steps), 1 + rng.Intn(5)}
	default:
		panic("faultline: genFault: unknown kind " + name)
	}
	return f
}
