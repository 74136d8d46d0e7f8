// Package gosensei is a pure-Go, standard-library-only reproduction of the
// SC16 paper "Performance Analysis, Design Considerations, and Applications
// of Extreme-scale In Situ Infrastructures" (Ayachit et al.,
// DOI 10.1109/SC.2016.78).
//
// The repository root holds the end-to-end tests: the everything-at-once
// integration test, the multi-process world smoke tests and the command
// smoke tests; cmd/bench is the only performance harness. The
// implementation lives under
// internal/ — see DESIGN.md for the full inventory, EXPERIMENTS.md for
// paper-versus-measured results, and README.md for a tour:
//
//   - internal/core is the paper's contribution, the SENSEI generic data
//     interface (DataAdaptor / AnalysisAdaptor / Bridge);
//   - internal/mpi, internal/array, internal/grid are the HPC substrate
//     (message passing, zero-copy data model, meshes);
//   - internal/catalyst, internal/libsim, internal/adios, internal/glean are
//     the four in situ infrastructures the interface bridges;
//   - internal/oscillator, internal/phasta, internal/leslie, internal/nyx
//     are the miniapp and the three science-application proxies;
//   - internal/experiments regenerates every table and figure, combining
//     real goroutine-scale execution with a calibrated at-scale model.
//
// Entry points: cmd/gosensei-run (the launcher: a data source — one of the
// miniapps, an in transit endpoint, or a post hoc replay of stored steps,
// named by its deck — on goroutine, loopback or tcp ranks, running whatever
// SENSEI XML configuration it is given; the only way a run is assembled),
// cmd/experiments, and the runnable programs under examples/.
package gosensei
