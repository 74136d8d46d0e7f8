// The metamorphic end-to-end suite: the oscillator -> analysis pipeline must
// produce bit-identical results under any tolerated fault schedule, and fatal
// schedules must fail identically on every replay.
//
// Every failure below prints a one-line GOSENSEI_FAULT_SCHEDULE=<seed:spec>
// token; exporting it re-runs the identical schedule:
//
//	GOSENSEI_FAULT_SCHEDULE='7:fabric.kill(rank=0,write=3)' \
//	    go test -run TestMetamorphic ./internal/faultline/
//
// GOSENSEI_FAULT_N overrides the number of generated schedules per test.
//
// This is an external test package: iosim imports faultline, and the
// pipeline here additionally pulls in adios and oscillator, which import mpi
// and fabric themselves.
package faultline_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gosensei/internal/adios"
	"gosensei/internal/analysis"
	"gosensei/internal/core"
	"gosensei/internal/fabric"
	"gosensei/internal/faultline"
	"gosensei/internal/grid"
	"gosensei/internal/iosim"
	"gosensei/internal/mpi"
	"gosensei/internal/oscillator"
)

const (
	e2eWriters = 2
	e2eSteps   = 3
	e2eDepth   = 2
	e2eBins    = 8
)

func e2eConfig() oscillator.Config {
	return oscillator.Config{
		GlobalCells: [3]int{8, 8, 8},
		DT:          0.1,
		Steps:       e2eSteps,
		Oscillators: oscillator.DefaultDeck(8),
	}
}

// faultf fails the test with the schedule's replay token first on the line,
// so any failure in this suite is reproducible by copy-paste.
func faultf(t *testing.T, s *faultline.Schedule, format string, args ...any) {
	t.Helper()
	t.Fatalf("GOSENSEI_FAULT_SCHEDULE='%s' replays this failure; %s", s, fmt.Sprintf(format, args...))
}

// e2eSchedules returns the schedules a metamorphic test runs: the single
// schedule named by GOSENSEI_FAULT_SCHEDULE when set (the replay path),
// otherwise GOSENSEI_FAULT_N (default 6) generated from consecutive seeds.
func e2eSchedules(t *testing.T, m faultline.Menu) []*faultline.Schedule {
	t.Helper()
	if spec := os.Getenv("GOSENSEI_FAULT_SCHEDULE"); spec != "" {
		s, err := faultline.Parse(spec)
		if err != nil {
			t.Fatalf("GOSENSEI_FAULT_SCHEDULE: %v", err)
		}
		return []*faultline.Schedule{s}
	}
	n := 6
	if v := os.Getenv("GOSENSEI_FAULT_N"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil || k < 1 {
			t.Fatalf("GOSENSEI_FAULT_N=%q: want a positive integer", v)
		}
		n = k
	}
	out := make([]*faultline.Schedule, n)
	for i := range out {
		out[i] = faultline.Generate(int64(i+1), m)
	}
	return out
}

func renderHist(r *analysis.HistogramResult) string {
	return fmt.Sprintf("step=%d min=%.17g max=%.17g counts=%v", r.Step, r.Min, r.Max, r.Counts)
}

// histRecorder runs after the histogram in the endpoint bridge and snapshots
// its per-step result, building the canonical output string the metamorphic
// property compares.
type histRecorder struct {
	h     *analysis.Histogram
	lines []string
}

func (r *histRecorder) Execute(core.DataAdaptor) (bool, error) {
	if r.h != nil && r.h.Last != nil {
		r.lines = append(r.lines, renderHist(r.h.Last))
	}
	return true, nil
}

func (r *histRecorder) Finalize() error { return nil }

// fabricSeq names the runs' fabrics apart on the loopback registry.
var fabricSeq atomic.Int64

// stagingRun drives the full in transit pipeline — oscillator writers ->
// FlexPath fabric -> endpoint histogram — under a fault schedule, returning
// the canonical analysis output and the schedule's fired-fault trace. Fabric
// options select the wire variant (codec preference, extract negotiation);
// every variant must produce the same canonical output.
func stagingRun(sched *faultline.Schedule, fabOpts ...adios.FabricOption) (string, []string, error) {
	run := sched.Start()
	cfg := e2eConfig()
	fab, err := adios.ListenFabric("loopback", fmt.Sprintf("faultline/%d", fabricSeq.Add(1)), e2eWriters, 1, e2eDepth, fabOpts...)
	if err != nil {
		return "", nil, err
	}
	if fp := run.FabricPlan(); fp != nil {
		fab.SetConnWrapper(fp.WrapConn)
	}
	writerOpts := []mpi.Option{mpi.WithRecvTimeout(60 * time.Second)}
	if p := run.NewMPIPlan(); p != nil {
		writerOpts = append(writerOpts, mpi.WithFaults(p))
	}

	rec := &histRecorder{}
	var wg sync.WaitGroup
	var writerErr, endpointErr error
	var res *adios.EndpointResult
	wg.Add(2)
	go func() {
		defer wg.Done()
		writerErr = mpi.Run(e2eWriters, func(c *mpi.Comm) error {
			s, err := oscillator.NewSim(c, cfg, nil)
			if err != nil {
				return err
			}
			w := adios.NewWriter(c, &adios.FlexPathTransport{Fabric: fab})
			b := core.NewBridge(c, nil, nil)
			b.AddAnalysis("adios", w)
			d := oscillator.NewDataAdaptor(s)
			for i := 0; i < cfg.Steps; i++ {
				if err := s.Step(); err != nil {
					return err
				}
				d.Update()
				if _, err := b.Execute(d); err != nil {
					return err
				}
			}
			return b.Finalize()
		}, writerOpts...)
	}()
	go func() {
		defer wg.Done()
		res, endpointErr = adios.RunEndpoint(fab, func(b *core.Bridge) error {
			h := analysis.NewHistogram(b.Comm, "data", grid.CellData, e2eBins)
			rec.h = h
			b.AddAnalysis("histogram", h)
			b.AddAnalysis("record", rec)
			return nil
		}, mpi.WithRecvTimeout(60*time.Second))
	}()
	wg.Wait()
	_ = fab.Close()
	if writerErr != nil {
		return "", run.TraceLines(), fmt.Errorf("writer group: %w", writerErr)
	}
	if endpointErr != nil {
		return "", run.TraceLines(), fmt.Errorf("endpoint group: %w", endpointErr)
	}
	out := fmt.Sprintf("steps=%d\n%s", res.Steps, strings.Join(rec.lines, "\n"))
	return out, run.TraceLines(), nil
}

// posthocRun drives the post hoc pipeline — oscillator writers -> per-rank
// block files -> reduced reader group -> histogram — under a fault schedule.
// The canonical output includes a hash of every file on disk, so a retried
// write that corrupted or dropped a block cannot go unnoticed.
func posthocRun(dir string, sched *faultline.Schedule) (string, []string, error) {
	run := sched.Start()

	cfg := e2eConfig()
	err := mpi.Run(e2eWriters, func(c *mpi.Comm) error {
		s, err := oscillator.NewSim(c, cfg, nil)
		if err != nil {
			return err
		}
		d := oscillator.NewDataAdaptor(s)
		for i := 0; i < cfg.Steps; i++ {
			if err := s.Step(); err != nil {
				return err
			}
			d.Update()
			mesh, err := d.Mesh(false)
			if err != nil {
				return err
			}
			if err := d.AddArray(mesh, grid.CellData, "data"); err != nil {
				return err
			}
			if _, err := iosim.WriteBlockFile(dir, c.Rank(), mesh.(*grid.ImageData), s.StepIndex(), s.Time(), run.IOPlan()); err != nil {
				return err
			}
			_ = d.ReleaseData()
		}
		return nil
	})
	if err != nil {
		return "", run.TraceLines(), fmt.Errorf("write phase: %w", err)
	}

	steps, writers, err := iosim.ListSteps(dir)
	if err != nil {
		return "", run.TraceLines(), err
	}
	var lines []string
	err = mpi.Run(1, func(c *mpi.Comm) error {
		h := analysis.NewHistogram(c, "data", grid.CellData, e2eBins)
		for _, step := range steps {
			mb, _, err := iosim.ReadStep(dir, step, 0, 1, writers, run.IOPlan())
			if err != nil {
				return err
			}
			res, err := h.Compute(step, mb)
			if err != nil {
				return err
			}
			lines = append(lines, renderHist(res))
		}
		return nil
	})
	if err != nil {
		return "", run.TraceLines(), fmt.Errorf("read phase: %w", err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", run.TraceLines(), err
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return "", run.TraceLines(), err
		}
		lines = append(lines, fmt.Sprintf("%s sha256=%x", name, sha256.Sum256(data)))
	}
	return strings.Join(lines, "\n"), run.TraceLines(), nil
}

// TestMetamorphicStaging asserts the tolerated-fault contract on the in
// transit path: N seeded schedules of mpi and fabric faults, each producing
// endpoint analysis output bit-identical to the fault-free run.
func TestMetamorphicStaging(t *testing.T) {
	clean, trace, err := stagingRun(&faultline.Schedule{Seed: 0})
	if err != nil {
		t.Fatalf("fault-free pipeline: %v", err)
	}
	if len(trace) != 0 {
		t.Fatalf("fault-free run has a trace: %v", trace)
	}
	if got := strings.Count(clean, "step="); got != e2eSteps {
		t.Fatalf("fault-free run recorded %d steps, want %d:\n%s", got, e2eSteps, clean)
	}
	menu := faultline.Menu{MPI: true, Fabric: true, Ranks: e2eWriters, Steps: e2eSteps}
	for _, sched := range e2eSchedules(t, menu) {
		sched := sched
		t.Run(fmt.Sprintf("seed=%d", sched.Seed), func(t *testing.T) {
			out, _, err := stagingRun(sched)
			if err != nil {
				faultf(t, sched, "pipeline failed under tolerated faults: %v", err)
			}
			if out != clean {
				faultf(t, sched, "output diverged from fault-free run\nclean:\n%s\nfaulty:\n%s", clean, out)
			}
		})
	}
}

// TestMetamorphicStagingVariants extends the metamorphic property across the
// negotiated wire variants: delta and flate codecs, and extract shipping,
// each compared against the RAW fault-free run — so the codec layer, the
// reconnect retransmit path, and the writer-side histogram reduction must
// all be invisible to the analysis. A hand-written kill schedule pins the
// hardest case deterministically: both writers lose their connection mid-run,
// reconnect, and must replay pending steps with the negotiated codec and a
// reset delta chain (the restarted endpoint has no previous-step reference).
func TestMetamorphicStagingVariants(t *testing.T) {
	clean, _, err := stagingRun(&faultline.Schedule{Seed: 0})
	if err != nil {
		t.Fatalf("fault-free raw pipeline: %v", err)
	}
	extractSpec := fabric.ExtractSpec{
		Kind:  fabric.ExtractHistogram,
		Assoc: uint8(grid.CellData),
		Bins:  uint32(e2eBins),
		Array: "data",
	}
	variants := []struct {
		name string
		opts []adios.FabricOption
	}{
		{"flate", []adios.FabricOption{adios.WithCodecs(fabric.CodecFlate)}},
		{"delta", []adios.FabricOption{adios.WithCodecs(fabric.CodecDelta)}},
		{"extract-delta", []adios.FabricOption{
			adios.WithExtract(extractSpec), adios.WithCodecs(fabric.CodecDelta)}},
	}
	menu := faultline.Menu{MPI: true, Fabric: true, Ranks: e2eWriters, Steps: e2eSteps}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			out, trace, err := stagingRun(&faultline.Schedule{Seed: 0}, v.opts...)
			if err != nil {
				t.Fatalf("fault-free %s pipeline: %v", v.name, err)
			}
			if len(trace) != 0 {
				t.Fatalf("fault-free run has a trace: %v", trace)
			}
			if out != clean {
				t.Fatalf("fault-free %s output diverged from raw staging\nraw:\n%s\n%s:\n%s",
					v.name, clean, v.name, out)
			}
			kill, err := faultline.Parse("17:fabric.kill(rank=0,write=3);fabric.kill(rank=1,write=4)")
			if err != nil {
				t.Fatal(err)
			}
			out, trace, err = stagingRun(kill, v.opts...)
			if err != nil {
				faultf(t, kill, "%s pipeline failed across reconnects: %v", v.name, err)
			}
			if !reflect.DeepEqual(trace, []string{
				"fabric.kill(rank=0,write=3) x1",
				"fabric.kill(rank=1,write=4) x1",
			}) {
				faultf(t, kill, "kills did not both fire (trace %v) — reconnect not exercised", trace)
			}
			if out != clean {
				faultf(t, kill, "%s output diverged across reconnects\nraw clean:\n%s\nfaulty:\n%s",
					v.name, clean, out)
			}
			for _, sched := range e2eSchedules(t, menu) {
				sched := sched
				t.Run(fmt.Sprintf("seed=%d", sched.Seed), func(t *testing.T) {
					out, _, err := stagingRun(sched, v.opts...)
					if err != nil {
						faultf(t, sched, "%s pipeline failed under tolerated faults: %v", v.name, err)
					}
					if out != clean {
						faultf(t, sched, "%s output diverged from raw fault-free run\nclean:\n%s\nfaulty:\n%s",
							v.name, clean, out)
					}
				})
			}
		})
	}
}

// TestMetamorphicPosthoc asserts the same contract on the post hoc path: io
// faults (ENOSPC retries, short reads, fsync spikes) must leave both the
// histogram results and the block files on disk bit-identical.
func TestMetamorphicPosthoc(t *testing.T) {
	clean, trace, err := posthocRun(t.TempDir(), &faultline.Schedule{Seed: 0})
	if err != nil {
		t.Fatalf("fault-free pipeline: %v", err)
	}
	if len(trace) != 0 {
		t.Fatalf("fault-free run has a trace: %v", trace)
	}
	menu := faultline.Menu{IO: true, Ranks: e2eWriters, Steps: e2eSteps}
	for _, sched := range e2eSchedules(t, menu) {
		sched := sched
		t.Run(fmt.Sprintf("seed=%d", sched.Seed), func(t *testing.T) {
			out, _, err := posthocRun(t.TempDir(), sched)
			if err != nil {
				faultf(t, sched, "pipeline failed under tolerated faults: %v", err)
			}
			if out != clean {
				faultf(t, sched, "output diverged from fault-free run\nclean:\n%s\nfaulty:\n%s", clean, out)
			}
		})
	}
}

// TestReproStringReplayIdentical pins the replay contract end to end: a
// schedule reconstructed from its own String() drives a second run whose
// analysis output AND fired-fault trace are identical to the first — the
// printed repro token really does re-run the same failure.
func TestReproStringReplayIdentical(t *testing.T) {
	spec := "11:fabric.kill(rank=0,write=3);fabric.hsdrop(rank=1,dial=1);mpi.stall(rank=1,op=2,ms=1)"
	s1, err := faultline.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s1.String() != spec {
		t.Fatalf("String() = %q, want %q", s1.String(), spec)
	}
	out1, tr1, err := stagingRun(s1)
	if err != nil {
		faultf(t, s1, "first run: %v", err)
	}
	s2, err := faultline.Parse(s1.String())
	if err != nil {
		t.Fatal(err)
	}
	out2, tr2, err := stagingRun(s2)
	if err != nil {
		faultf(t, s2, "replay run: %v", err)
	}
	if out1 != out2 {
		faultf(t, s1, "replay output diverged\nfirst:\n%s\nreplay:\n%s", out1, out2)
	}
	if !reflect.DeepEqual(tr1, tr2) {
		faultf(t, s1, "replay trace diverged\nfirst: %v\nreplay: %v", tr1, tr2)
	}
	// The pipeline's geometry guarantees all three faults fire exactly once:
	// every writer dials at least once, makes >= 5 wire writes, and sends >=
	// 2 mpi messages (one advance allreduce per step).
	want := []string{
		"fabric.hsdrop(rank=1,dial=1) x1",
		"fabric.kill(rank=0,write=3) x1",
		"mpi.stall(rank=1,op=2,ms=1) x1",
	}
	if !reflect.DeepEqual(tr1, want) {
		faultf(t, s1, "trace = %v, want %v", tr1, want)
	}
	// And the tolerated contract holds for the hand-written schedule too.
	clean, _, err := stagingRun(&faultline.Schedule{Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	if out1 != clean {
		faultf(t, s1, "output diverged from fault-free run\nclean:\n%s\nfaulty:\n%s", clean, out1)
	}
}

// TestReproStringReplayIdenticalPosthoc is the io-domain twin: replaying a
// schedule of write/read faults yields identical histograms, identical file
// hashes, and an identical trace.
func TestReproStringReplayIdenticalPosthoc(t *testing.T) {
	spec := "13:io.enospc(rank=0,op=2,n=1);io.shortread(rank=1,op=1);io.fsync(rank=0,op=1,ms=2)"
	s1, err := faultline.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	out1, tr1, err := posthocRun(t.TempDir(), s1)
	if err != nil {
		faultf(t, s1, "first run: %v", err)
	}
	s2, err := faultline.Parse(s1.String())
	if err != nil {
		t.Fatal(err)
	}
	out2, tr2, err := posthocRun(t.TempDir(), s2)
	if err != nil {
		faultf(t, s2, "replay run: %v", err)
	}
	if out1 != out2 {
		faultf(t, s1, "replay output diverged\nfirst:\n%s\nreplay:\n%s", out1, out2)
	}
	if !reflect.DeepEqual(tr1, tr2) {
		faultf(t, s1, "replay trace diverged\nfirst: %v\nreplay: %v", tr1, tr2)
	}
	want := []string{
		"io.enospc(rank=0,op=2,n=1) x1",
		"io.fsync(rank=0,op=1,ms=2) x1",
		"io.shortread(rank=1,op=1) x1",
	}
	if !reflect.DeepEqual(tr1, want) {
		faultf(t, s1, "trace = %v, want %v", tr1, want)
	}
}

// TestFatalScheduleFailsIdentically pins the fatal contract: an mpi.crash
// schedule must make the run fail — and fail the same way, with the same
// trace, on every replay.
func TestFatalScheduleFailsIdentically(t *testing.T) {
	sched, err := faultline.Parse("9:mpi.crash(rank=0,op=2)")
	if err != nil {
		t.Fatal(err)
	}
	if !sched.Fatal() {
		t.Fatal("schedule must classify as fatal")
	}
	runOnce := func() (string, []string) {
		run := sched.Start()
		err := mpi.Run(2, func(c *mpi.Comm) error {
			for i := 0; i < e2eSteps; i++ {
				if c.Rank() == 0 {
					mpi.Send(c, 1, 7, []int{i})
				} else if _, _, err := mpi.Recv[int](c, 0, 7); err != nil {
					return err
				}
			}
			return nil
		}, mpi.WithFaults(run.NewMPIPlan()), mpi.WithRecvTimeout(2*time.Second))
		if err == nil {
			faultf(t, sched, "fatal schedule did not fail the run")
		}
		return err.Error(), run.TraceLines()
	}
	msg1, tr1 := runOnce()
	msg2, tr2 := runOnce()
	if !strings.Contains(msg1, "mpi.crash(rank=0,op=2)") {
		faultf(t, sched, "failure does not name the injected fault: %s", msg1)
	}
	if msg1 != msg2 {
		faultf(t, sched, "replay failed differently\nfirst:  %s\nreplay: %s", msg1, msg2)
	}
	want := []string{"mpi.crash(rank=0,op=2) x1"}
	if !reflect.DeepEqual(tr1, want) || !reflect.DeepEqual(tr2, want) {
		faultf(t, sched, "traces = %v / %v, want %v", tr1, tr2, want)
	}
}
