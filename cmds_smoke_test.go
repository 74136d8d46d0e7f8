package gosensei

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"gosensei/internal/array"
	"gosensei/internal/grid"
	"gosensei/internal/iosim"
)

// buildTool compiles one cmd into a shared temp dir (cached per test run).
func buildTool(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = t.TempDir() // keep outputs out of the repo
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

// repoFile resolves a path shipped in the repository; the binaries run from
// scratch directories.
func repoFile(t *testing.T, elem ...string) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(append([]string{wd}, elem...)...)
}

// TestCmdOscillatorSmoke: the miniapp is gosensei-run on goroutine ranks.
func TestCmdOscillatorSmoke(t *testing.T) {
	bin := buildTool(t, "gosensei-run")
	out := run(t, bin, "-transport", "proc", "-np", "2", "-cells", "12", "-steps", "3")
	if !strings.Contains(out, "time to solution") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	// With a config and a deck from the repository.
	out = run(t, bin, "-transport", "proc", "-np", "2", "-cells", "32", "-steps", "3",
		"-deck", repoFile(t, "decks", "sample.osc"),
		"-config", repoFile(t, "configs", "histogram.xml"), "-v")
	if !strings.Contains(out, "1 analyses") {
		t.Fatalf("config not applied:\n%s", out)
	}
	if !strings.Contains(out, "analysis::histogram") {
		t.Fatalf("histogram timer missing:\n%s", out)
	}
	if !strings.Contains(out, "histogram data: step=3 ") {
		t.Fatalf("histogram not reported:\n%s", out)
	}
	// A live line serves what the configured catalyst renders, on any deck.
	deck := filepath.Join(t.TempDir(), "live.deck")
	if err := os.WriteFile(deck, []byte("live 127.0.0.1:0\ndamped 6 6 6 3 3.14 0.3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out = run(t, bin, "-np", "2", "-cells", "12", "-steps", "3", "-deck", deck,
		"-config", repoFile(t, "configs", "catalyst-slice.xml"))
	if !strings.Contains(out, "live: serving viewers on 127.0.0.1:") || !strings.Contains(out, "live: 3 frames published") {
		t.Fatalf("live line not served:\n%s", out)
	}
}

func TestCmdExperimentsSmoke(t *testing.T) {
	bin := buildTool(t, "experiments")
	out := run(t, bin, "-list")
	for _, id := range []string{"fig3", "tab1", "tab2", "fig17", "abl-zerocopy"} {
		if !strings.Contains(out, id) {
			t.Fatalf("experiment %s missing from -list:\n%s", id, out)
		}
	}
	out = run(t, bin, "-run", "tab1", "-calibrate=false")
	if !strings.Contains(out, "vtk-io") || !strings.Contains(out, "mpi-io") {
		t.Fatalf("tab1 output wrong:\n%s", out)
	}
}

// endpointDeck writes a simulation endpoint deck listening on addr with the
// tests' queue depth, and returns its path.
func endpointDeck(t *testing.T, addr string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "endpoint.deck")
	if err := os.WriteFile(path, []byte("simulation endpoint\nqueue-depth 2\nlisten "+addr+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writerConfig is configs/intransit-writer.xml pointed at a listening
// endpoint, with the tests' queue depth and the given retry window.
func writerConfig(t *testing.T, addr string, retrySeconds string) string {
	t.Helper()
	doc, err := os.ReadFile(repoFile(t, "configs", "intransit-writer.xml"))
	if err != nil {
		t.Fatal(err)
	}
	out := string(doc)
	for old, new := range map[string]string{
		`endpoint="127.0.0.1:9917"`: `endpoint="` + addr + `"`,
		`depth="1"`:                 `depth="2"`,
		`retry-window="15"`:         `retry-window="` + retrySeconds + `"`,
	} {
		if !strings.Contains(out, old) {
			t.Fatalf("configs/intransit-writer.xml no longer says %s", old)
		}
		out = strings.Replace(out, old, new, 1)
	}
	path := filepath.Join(t.TempDir(), "writer.xml")
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// awaitOutput waits for a started process's full output.
func awaitOutput(t *testing.T, what string, out <-chan string) string {
	t.Helper()
	select {
	case o := <-out:
		return o
	case <-time.After(60 * time.Second):
		t.Fatalf("%s did not exit", what)
		return ""
	}
}

// TestCmdEndpointSmoke stages three steps to an endpoint run — two reader
// ranks on a loopback world, under a schedule of tolerated mpi faults — from
// writers under a schedule of fabric faults, which the configured writer
// takes from its bridge's fault schedule. Every fault fires and is ridden
// out: the endpoint reports what the in situ run reports.
func TestCmdEndpointSmoke(t *testing.T) {
	sim := buildTool(t, "gosensei-run")
	shape := []string{"-np", "2", "-cells", "12", "-steps", "3"}
	want := inSituHistogram(t, sim, shape...)
	const mpiFaults = "5:mpi.delay(src=0,dst=1,msg=2,ms=2);mpi.dup(src=1,dst=0,msg=1);mpi.reorder(src=1,dst=0,msg=3)"
	_, addr, out := startListener(t, sim, "127.0.0.1:0", "-transport", "loopback", "-faults", mpiFaults)
	writer := run(t, sim, append(shape, "-config", writerConfig(t, addr, "15"),
		"-faults", "7:fabric.kill(rank=0,write=3)")...)
	if !strings.Contains(writer, "faultline: fired fabric.kill(rank=0,write=3) x1") || !strings.Contains(writer, "reconnects 1") {
		t.Fatalf("the fabric fault did not reach the configured writer:\n%s", writer)
	}
	epOut := awaitOutput(t, "endpoint", out)
	for _, fired := range []string{"mpi.delay(src=0,dst=1,msg=2,ms=2) x1", "mpi.dup(src=1,dst=0,msg=1) x1", "mpi.reorder(src=1,dst=0,msg=3) x1"} {
		if !strings.Contains(epOut, "faultline: fired "+fired) {
			t.Fatalf("%s did not reach the endpoint's reader group:\n%s", fired, epOut)
		}
	}
	if !strings.Contains(epOut, "endpoint: 2 ranks, 2 writers, 3 steps, 1 analyses\n") {
		t.Fatalf("staging count wrong:\n%s", epOut)
	}
	if got := histogramLines(t, epOut); got != want {
		t.Fatalf("endpoint histogram differs from in situ:\n--- endpoint ---\n%s--- in situ ---\n%s", got, want)
	}
}

// startListener launches an endpoint run — gosensei-run on an endpoint deck
// listening on addr (127.0.0.1:0, or a fixed address), two reader ranks, the
// shipped endpoint configuration, and any extra flags — parses the bound
// address from its stdout, and returns the command, the address, and a
// channel that yields the full output when the process exits.
func startListener(t *testing.T, bin, addr string, extra ...string) (*exec.Cmd, string, <-chan string) {
	t.Helper()
	args := append([]string{"-np", "2", "-deck", endpointDeck(t, addr),
		"-config", repoFile(t, "configs", "endpoint-histogram.xml")}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Dir = t.TempDir()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatalf("start listener: %v", err)
	}
	r := bufio.NewReader(stdout)
	line, err := r.ReadString('\n')
	if err != nil {
		_ = cmd.Process.Kill()
		t.Fatalf("read listen line: %v (got %q)", err, line)
	}
	const marker = "fabric: listening on "
	if !strings.HasPrefix(line, marker) {
		_ = cmd.Process.Kill()
		t.Fatalf("unexpected first line %q", line)
	}
	bound := strings.TrimSpace(strings.TrimPrefix(line, marker))
	out := make(chan string, 1)
	go func() {
		rest, _ := io.ReadAll(r)
		err := cmd.Wait()
		out <- line + string(rest) + fmt.Sprintf("exit: %v\n", err)
	}()
	return cmd, bound, out
}

// histogramLines extracts what the histogram analysis reported — the part of
// any output that depends on (np, cells, steps) alone, whichever data source
// of whichever deployment computed it.
func histogramLines(t *testing.T, out string) string {
	t.Helper()
	var b strings.Builder
	for _, line := range strings.SplitAfter(out, "\n") {
		if strings.HasPrefix(line, "histogram ") {
			b.WriteString(line)
		}
	}
	if b.Len() == 0 {
		t.Fatalf("no histogram reported in output:\n%s", out)
	}
	return b.String()
}

// inSituHistogram is the reference of the in transit tests: the same
// histogram computed in situ, in one process, for the same (np, cells, steps).
func inSituHistogram(t *testing.T, sim string, shape ...string) string {
	t.Helper()
	return histogramLines(t, run(t, sim, append(shape, "-config", repoFile(t, "configs", "histogram.xml"))...))
}

// TestCmdEndpointTwoProcessTCP runs the simulation and the endpoint as
// separate OS processes over TCP — the simulation itself a tcp world, one
// process per rank, each dialing the endpoint — and requires the endpoint to
// report, byte for byte, what the in situ run reports: the §4.1.4 deployment
// with the wire underneath.
func TestCmdEndpointTwoProcessTCP(t *testing.T) {
	sim := buildTool(t, "gosensei-run")
	shape := []string{"-np", "2", "-cells", "12", "-steps", "3"}
	want := inSituHistogram(t, sim, shape...)

	_, addr, out := startListener(t, sim, "127.0.0.1:0")
	writer := run(t, sim, append(shape, "-transport", "tcp", "-config", writerConfig(t, addr, "15"))...)
	if !strings.Contains(writer, "adios flexpath to "+addr) || !strings.Contains(writer, "reconnects 0") {
		t.Fatalf("writer output wrong:\n%s", writer)
	}
	if got := histogramLines(t, awaitOutput(t, "endpoint", out)); got != want {
		t.Fatalf("two-process histogram differs from in situ:\n--- endpoint ---\n%s--- in situ ---\n%s", got, want)
	}
}

// endpointKill is the fault that kills an endpoint run of two reader ranks
// mid-run: reader 0's third send is the first of the third step's histogram
// reduction, so both readers die inside that step, before its credits
// return, and the writers must retransmit it.
const endpointKill = "1:mpi.crash(rank=0,op=3)"

// awaitKilled waits for an endpoint run killed by endpointKill, and requires
// the launcher's fatal-fault exit with the fired fault in its trace.
func awaitKilled(t *testing.T, doomed *exec.Cmd, out <-chan string) {
	t.Helper()
	select {
	case o := <-out:
		if !strings.Contains(o, "faultline: fired mpi.crash(rank=0,op=3) x1") || !strings.Contains(o, "exit: exit status 3\n") {
			t.Fatalf("endpoint did not die of the scheduled crash:\n%s", o)
		}
	case <-time.After(60 * time.Second):
		_ = doomed.Process.Kill()
		t.Fatalf("endpoint never exited")
	}
}

// TestCmdEndpointReconnect kills the endpoint process mid-run through its
// fault schedule, restarts it on the same port, and requires the writers to
// ride the outage out — retransmitting unacknowledged steps — with the final
// histogram identical to an undisturbed in situ run.
func TestCmdEndpointReconnect(t *testing.T) {
	sim := buildTool(t, "gosensei-run")
	shape := []string{"-np", "2", "-cells", "12", "-steps", "4"}
	want := inSituHistogram(t, sim, shape...)

	doomed, addr, doomedOut := startListener(t, sim, "127.0.0.1:0", "-faults", endpointKill)
	writerDone := make(chan string, 1)
	writerErr := make(chan error, 1)
	cfg := writerConfig(t, addr, "60")
	go func() {
		cmd := exec.Command(sim, append(shape, "-config", cfg)...)
		cmd.Dir = t.TempDir()
		o, err := cmd.CombinedOutput()
		writerDone <- string(o)
		writerErr <- err
	}()

	// Wait for the injected failure, then restart the endpoint on the SAME
	// port while the writer process is mid-run.
	awaitKilled(t, doomed, doomedOut)
	_, _, out2 := startListener(t, sim, addr)

	wo := <-writerDone
	if err := <-writerErr; err != nil {
		t.Fatalf("writer did not survive the endpoint restart: %v\n%s", err, wo)
	}
	if !strings.Contains(wo, "reconnects 2") {
		t.Fatalf("writer reported no reconnects:\n%s", wo)
	}
	if got := histogramLines(t, awaitOutput(t, "restarted endpoint", out2)); got != want {
		t.Fatalf("post-reconnect histogram differs from in situ:\n--- reconnect ---\n%s--- in situ ---\n%s", got, want)
	}
}

// TestCmdEndpointRetryWindowExpires is the complement of the reconnect
// test: the endpoint dies mid-run and is never restarted, so the writers'
// retry-window must expire and the process must fail with a diagnostic
// rather than hang.
func TestCmdEndpointRetryWindowExpires(t *testing.T) {
	sim := buildTool(t, "gosensei-run")
	doomed, addr, doomedOut := startListener(t, sim, "127.0.0.1:0", "-faults", endpointKill)
	writerDone := make(chan string, 1)
	writerErr := make(chan error, 1)
	cfg := writerConfig(t, addr, "2")
	go func() {
		cmd := exec.Command(sim, "-np", "2", "-cells", "12", "-steps", "4", "-config", cfg)
		cmd.Dir = t.TempDir()
		o, err := cmd.CombinedOutput()
		writerDone <- string(o)
		writerErr <- err
	}()

	awaitKilled(t, doomed, doomedOut)
	// No restart: the writers must give up within the window.
	wo := <-writerDone
	err := <-writerErr
	if err == nil {
		t.Fatalf("writer succeeded with no endpoint to reach:\n%s", wo)
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("writer did not exit non-zero: %v\n%s", err, wo)
	}
	if !strings.Contains(wo, "could not reach") {
		t.Fatalf("writer failure lacks the retry-window diagnostic:\n%s", wo)
	}
}

// TestCmdPosthocSmoke: what a -np 4 run stored with the vtk-writer, replayed
// by a replay deck at 1, 2 and 4 reader ranks on goroutine ranks and on a
// tcp world, reports the histogram lines the run itself reported in situ,
// byte for byte. A stored step some writer's block is missing from is
// refused, naming the step and the rank, before any rank exists.
func TestCmdPosthocSmoke(t *testing.T) {
	sim := buildTool(t, "gosensei-run")
	work := t.TempDir()
	cfg := filepath.Join(work, "writer.xml")
	if err := os.WriteFile(cfg, []byte(`<sensei><analysis type="vtk-writer" dir="`+work+`/out"/><analysis type="histogram" bins="10"/></sensei>`), 0o644); err != nil {
		t.Fatal(err)
	}
	want := histogramLines(t, run(t, sim, "-np", "4", "-cells", "12", "-steps", "3", "-config", cfg))
	deck := filepath.Join(work, "replay.deck")
	if err := os.WriteFile(deck, []byte("simulation replay\ndir "+work+"/out\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	histogram := repoFile(t, "configs", "histogram.xml")
	for _, np := range []string{"1", "2", "4"} {
		for _, transport := range []string{"proc", "tcp"} {
			out := run(t, sim, "-np", np, "-transport", transport, "-deck", deck, "-config", histogram)
			if !strings.Contains(out, "replay: "+np+" ranks, 4 writers, 3 steps, 1 analyses\n") {
				t.Fatalf("np %s on %s: header wrong:\n%s", np, transport, out)
			}
			if got := histogramLines(t, out); got != want {
				t.Fatalf("np %s on %s: replayed histogram differs from in situ:\n--- replay ---\n%s--- in situ ---\n%s", np, transport, got, want)
			}
		}
	}
	if err := os.Remove(iosim.BlockPath(work+"/out", 2, 1)); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(sim, "-np", "2", "-deck", deck, "-config", histogram)
	cmd.Dir = work
	out, err := cmd.CombinedOutput()
	if err == nil || !strings.Contains(string(out), "step 2 lacks rank 1's block") || strings.Contains(string(out), "histogram") {
		t.Fatalf("a partial step was not refused: %v\n%s", err, out)
	}
}

// TestCmdRefusals pins flag and deck validation and exit codes for the
// launcher, the one binary a run is assembled from, and for the experiments
// harness: whatever is wrong with the command line, the files it names or
// the fault schedule is refused before any rank exists or any socket is
// bound — exit 1, one line on stderr naming the problem, nothing on stdout
// (an endpoint deck's first line there is its bound address), promptly, no
// goroutine dump, and no worker process left behind (each command runs in
// its own process group, which must be empty once it has exited).
func TestCmdRefusals(t *testing.T) {
	bins := map[string]string{}
	for _, name := range []string{"gosensei-run", "experiments"} {
		bins[name] = buildTool(t, name)
	}
	work := t.TempDir()
	// One stored step of one writer: enough for a replay to analyse
	// something, so a refusal cannot pass for an empty directory.
	blocks := filepath.Join(work, "blocks")
	img := grid.NewImageData(grid.NewExtent3D(3, 3, 3))
	img.Attributes(grid.CellData).Add(array.New[float64]("data", 1, img.NumberOfCells()))
	if _, err := iosim.WriteBlockFile(blocks, 0, img, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(work, "empty"), 0o755); err != nil {
		t.Fatal(err)
	}
	file := func(name, doc string) string {
		path := filepath.Join(work, name)
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	histogram := repoFile(t, "configs", "histogram.xml")
	unknown := file("unknown.xml", `<sensei><analysis type="nope"/></sensei>`)
	endpoint := func(name, lines string) string { return file(name, "simulation endpoint\n"+lines) }
	replay := file("replay.deck", "simulation replay\ndir "+blocks+"\n")
	type refusal struct {
		bin  string
		args []string
		want string // stderr must contain it
	}
	rows := []refusal{
		{"gosensei-run", []string{"-np", "2", "-deck", "/nonexistent"}, "/nonexistent: no such file"},
		{"gosensei-run", []string{"-np", "2", "-deck", file("bad.osc", "damped 1 2\n")}, "deck line 1"},
		{"gosensei-run", []string{"-deck", file("nope.deck", "# which miniapp\nsimulation nope\n")}, `deck line 2: unknown simulation "nope" (want oscillator, phasta, leslie, nyx, endpoint or replay)`},
		{"gosensei-run", []string{"-deck", file("nyx.deck", "simulation nyx\nperiodic 8 8 8 4 6.28\n")}, "deck line 2: simulation nyx takes no other line"},
		{"gosensei-run", []string{"-deck", file("steer.deck", "simulation phasta\nsteer 10 1.6\n")}, "deck line 2: simulation phasta takes only steer <step> <amplitude> <frequency> lines"},
		// A decomposition the simulation cannot make: refused by the front
		// door, not by every worker.
		{"gosensei-run", []string{"-np", "16", "-cells", "8", "-steps", "2", "-transport", "tcp", "-deck", file("nyx16.deck", "simulation nyx\n")}, "nyx: 8 z-cells cannot feed 16 ranks"},
		{"gosensei-run", []string{"-np", "16", "-cells", "8", "-steps", "2", "-transport", "tcp", "-deck", file("phasta16.deck", "simulation phasta\n")}, "phasta: 7 x-cells cannot feed 16 ranks"},
		{"gosensei-run", []string{"-deck", file("osc.deck", "simulation oscillator\nsteer 10 1.6 1.5\n")}, "oscillator: deck line 2: want 6 or 7 fields, got 4"},
		{"gosensei-run", []string{"-np", "2", "-transport", "tcp", "-deck", file("tiny.osc", "periodic 1 1 1 1e-200 3\n")}, "oscillator: deck line 1: radius 1e-200 gives 2R² = 0"},
		{"gosensei-run", []string{"-np", "2", "-transport", "tcp", "-deck", file("nan.osc", "# a NaN radius is not positive, yet passes radius <= 0\nperiodic nan 1 1 nan 3\n")}, "oscillator: deck line 2: NaN is not a finite number"},
		{"gosensei-run", []string{"-deck", file("live.deck", "simulation leslie\nlive nowhere\n")}, "deck line 2: live: address nowhere: missing port"},
		{"gosensei-run", []string{"-config", "/nonexistent.xml"}, "/nonexistent.xml: no such file"},
		{"gosensei-run", []string{"-config", file("torn.xml", `<sensei><analysis`)}, "parse sensei config"},
		{"gosensei-run", []string{"-transport", "tcp", "-config", unknown}, `unknown analysis type "nope"`},
		{"gosensei-run", []string{"-config", file("nested.xml", `<sensei><analysis type="routed"><analysis route="insitu" type="nope"/></analysis></sensei>`)}, `unknown analysis type "nope"`},
		{"gosensei-run", []string{"-np", "0"}, "world size must be positive"},
		{"gosensei-run", []string{"-np", "-3", "-transport", "tcp"}, "world size must be positive"},
		{"gosensei-run", []string{"-transport", "pigeon"}, `unknown transport "pigeon"`},
		{"gosensei-run", []string{"-steps", "0"}, "steps must be positive"},
		{"gosensei-run", []string{"-np", "2", "stray-arg"}, `unexpected argument "stray-arg"`},
		{"gosensei-run", []string{"-faults", "7:mpi.delay(src=0)"}, "faultline:"},
		{"gosensei-run", []string{"-transport", "proc", "-faults", "7:world.rankkill(rank=2,op=4)"}, "cannot deliver world faults"},
		{"gosensei-run", []string{"-config", histogram, "-faults", "7:fabric.kill(rank=0,write=1)"}, "cannot deliver fabric faults"},
		{"gosensei-run", []string{"-transport", "tcp", "-faults", "7:fabric.kill(rank=0,write=1)"}, "cannot deliver fabric faults"},
		// The in transit endpoint: what its binary's flags refused, now
		// its deck's lines and the launcher's flags.
		{"gosensei-run", []string{"-deck", endpoint("ep-analysis.deck", ""), "-config", unknown}, `unknown analysis type "nope"`},
		{"gosensei-run", []string{"-deck", endpoint("ep-depth.deck", "queue-depth 0\n"), "-config", histogram}, "deck line 2: queue-depth must be at least 1, got 0"},
		{"gosensei-run", []string{"-deck", endpoint("ep-codec.deck", "codec raw,zip\n"), "-config", histogram}, `deck line 2: fabric: unknown codec "zip"`},
		{"gosensei-run", []string{"-deck", endpoint("ep-extract.deck", "extract histogram:data\n"), "-config", histogram}, `deck line 2: bad extract "histogram:data"`},
		{"gosensei-run", []string{"-deck", endpoint("ep-listen.deck", "listen not-an-address\n"), "-config", histogram}, "deck line 2: address not-an-address: missing port"},
		{"gosensei-run", []string{"-deck", endpoint("ep-line.deck", "ranks 4\n"), "-config", histogram}, `deck line 2: simulation endpoint takes only listen <host:port>, queue-depth <n>, codec <list> and extract <spec> lines, got "ranks 4"`},
		{"gosensei-run", []string{"-transport", "tcp", "-deck", endpoint("ep-tcp.deck", ""), "-config", histogram}, "simulation endpoint serves its reader group from one process"},
		{"gosensei-run", []string{"-steps", "3", "-deck", endpoint("ep-steps.deck", ""), "-config", histogram}, "simulation endpoint: the source decides the steps; drop -steps"},
		{"gosensei-run", []string{"-cells", "12", "-deck", endpoint("ep-cells.deck", ""), "-config", histogram}, "simulation endpoint: the source decides the cells; drop -cells"},
		// Post hoc replay.
		{"gosensei-run", []string{"-np", "1", "-deck", file("rp-empty.deck", "simulation replay\ndir "+filepath.Join(work, "empty")+"\n")}, "holds no stored steps"},
		{"gosensei-run", []string{"-np", "1", "-deck", file("rp-line.deck", "simulation replay\ndir "+blocks+"\nwriters 4\n")}, `deck line 3: simulation replay takes one dir <path> line, got "writers 4"`},
		{"gosensei-run", []string{"-np", "1", "-deck", file("rp-nodir.deck", "simulation replay\n")}, "the deck names no dir <path>"},
		{"gosensei-run", []string{"-np", "2", "-deck", replay}, "-np 2 is more readers than the 1 writers"},
		{"gosensei-run", []string{"-np", "1", "-transport", "tcp", "-deck", replay, "-config", unknown}, `unknown analysis type "nope"`},
		{"gosensei-run", []string{"-np", "1", "-steps", "3", "-deck", replay}, "simulation replay: the source decides the steps; drop -steps"},
		{"gosensei-run", []string{"-np", "1", "-cells", "8", "-deck", replay}, "simulation replay: the source decides the cells; drop -cells"},
		{"experiments", []string{"-run", "tab1", "-calibrate=false", "stray-arg"}, `unexpected argument "stray-arg"`},
		{"experiments", []string{"-run", "tab1", "-calibrate=false", "-check"}, "-check requires -shift"},
		{"experiments", []string{"-run", "nope"}, `unknown experiment "nope"`},
	}
	// What PR 17 pinned for a bad attribute value, now on every transport.
	for attrs, want := range map[string]string{
		`type="histogram" bins="0"`:        `gosensei-run: core: analysis element 0 (histogram): attribute "bins": 0 is below the minimum of 1`,
		`type="catalyst" stride="two"`:     `gosensei-run: core: analysis element 0 (catalyst): attribute "stride": "two" is not an integer`,
		`type="catalyst" image-widht="64"`: `gosensei-run: core: analysis element 0 (catalyst): attribute "image-widht": not an attribute of this analysis type`,
	} {
		doc := file(fmt.Sprintf("attr%d.xml", len(rows)), `<sensei><analysis `+attrs+`/></sensei>`)
		for _, transport := range []string{"proc", "loopback", "tcp"} {
			rows = append(rows, refusal{"gosensei-run", []string{"-np", "3", "-transport", transport, "-config", doc}, want + "\n"})
		}
	}
	for _, r := range rows {
		cmd := exec.Command(bins[r.bin], r.args...)
		cmd.Dir = work
		cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		start := time.Now()
		err := cmd.Run()
		what := fmt.Sprintf("%s %v", r.bin, r.args)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%s: %v, want exit status 1\n%s", what, err, stderr.String())
			continue
		}
		msg := stderr.String()
		if !strings.Contains(msg, r.want) || strings.Count(msg, "\n") != 1 || strings.Contains(msg, "goroutine ") {
			t.Errorf("%s: stderr %q, want one line containing %q", what, msg, r.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: refused, yet wrote to stdout: %q", what, stdout.String())
		}
		if d := time.Since(start); d > 10*time.Second {
			t.Errorf("%s: took %v to refuse", what, d)
		}
		if err := syscall.Kill(-cmd.Process.Pid, 0); err != syscall.ESRCH {
			t.Errorf("%s: its process group is not empty after exit (kill -0: %v)", what, err)
		}
	}
}
