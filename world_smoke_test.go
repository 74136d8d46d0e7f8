package gosensei

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// runStdout executes the launcher in a fresh directory and returns stdout
// and stderr separately — the cross-transport contract is on stdout bytes
// (and on the files written) alone.
func runStdout(t *testing.T, bin string, args ...string) (string, string, error) {
	t.Helper()
	return runIn(t, t.TempDir(), bin, args...)
}

func runIn(t *testing.T, dir, bin string, args ...string) (string, string, error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

// filesUnder digests every file a run left under dir, by relative path.
func filesUnder(t *testing.T, dir string) map[string][sha256.Size]byte {
	t.Helper()
	files := map[string][sha256.Size]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		files[rel] = sha256.Sum256(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestWorldSmoke is the acceptance gate for the cross-process world, for
// configurations rather than built-in pipelines: whatever the SENSEI XML
// names, a world of N OS processes over real TCP (and one of N goroutine
// ranks over loopback pipes) must print the stdout and write the files of the
// in-process run, byte for byte. "histogram" is the statistics pair, whose
// results are on stdout; "binswap" is a catalyst slice, whose binary-swap
// compositing exchanges half images between ranks and whose results are PNG
// files — at 4 ranks and at 3, the non-power-of-two fold. The other three
// rows are the paper's applications, each named by its deck: PHASTA's
// point-data slice with a mid-run jet retune, AVF-LESLIE's Libsim session
// (isosurfaces and slices), and Nyx's ghost-blanked density histogram and
// slice, at non-power-of-two rank counts.
func TestWorldSmoke(t *testing.T) {
	bin := buildTool(t, "gosensei-run")
	session := filepath.Join(t.TempDir(), "session.xml")
	if err := os.WriteFile(session, []byte(`<session>
		<image width="48" height="48"/>
		<plot type="isosurface" array="vorticity" value="0.15" color-by="vorticity"/>
		<plot type="slice" array="vorticity" axis="z" coord="3.14"/>
	</session>`), 0o644); err != nil {
		t.Fatal(err)
	}
	pipelines := []struct {
		name, deck, config string
		nps                []string
		args               []string
		stdout             string // what rank 0 must report
		files              int    // how many files the run must write
	}{
		{"histogram", "", `<sensei>
			<analysis type="histogram" array="data" bins="10"/>
			<analysis type="autocorrelation" array="data" window="3" k-max="3"/>
		</sensei>`, []string{"4"}, []string{"-cells", "12", "-steps", "4"}, "histogram data: step=4 ", 0},
		{"binswap", "", `<sensei>
			<analysis type="catalyst" array="data" image-width="64" image-height="48"
			          slice-axis="z" slice-coord="6" output-dir="frames"/>
		</sensei>`, []string{"3", "4"}, []string{"-cells", "12", "-steps", "3"}, "1 analyses", 3},
		{"phasta", "simulation phasta\nsteer 3 1.6 1.5\n", `<sensei>
			<analysis type="catalyst" array="velocity" association="point" image-width="64" image-height="16"
			          slice-axis="z" slice-coord="1" output-dir="frames"/>
		</sensei>`, []string{"3"}, []string{"-cells", "10", "-steps", "4"}, "phasta: 3 ranks, 10x7x7 points, 4 steps, 1 analyses", 4},
		{"leslie", "# the temporal mixing layer\nsimulation leslie\n", `<sensei>
			<analysis type="libsim" session="` + session + `" stride="2" output-dir="frames"/>
		</sensei>`, []string{"3"}, []string{"-cells", "8", "-steps", "4"}, "leslie: 3 ranks, 8^3 cells, 4 steps, 1 analyses", 2},
		{"nyx", "simulation nyx\n", `<sensei>
			<analysis type="histogram" array="dark_matter_density" bins="6"/>
			<analysis type="catalyst" array="dark_matter_density" image-width="32" image-height="32"
			          slice-axis="z" slice-coord="0.5" output-dir="frames"/>
		</sensei>`, []string{"3"}, []string{"-cells", "8", "-steps", "3"}, "histogram dark_matter_density: step=3 ", 3},
	}
	for _, p := range pipelines {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			config := filepath.Join(t.TempDir(), p.name+".xml")
			if err := os.WriteFile(config, []byte(p.config), 0o644); err != nil {
				t.Fatal(err)
			}
			args := append([]string{"-config", config}, p.args...)
			if p.deck != "" {
				deck := filepath.Join(t.TempDir(), p.name+".deck")
				if err := os.WriteFile(deck, []byte(p.deck), 0o644); err != nil {
					t.Fatal(err)
				}
				args = append(args, "-deck", deck)
			}
			for _, np := range p.nps {
				base := append([]string{"-np", np}, args...)
				procDir := t.TempDir()
				proc, stderr, err := runIn(t, procDir, bin, append(base, "-transport", "proc")...)
				if err != nil {
					t.Fatalf("np %s proc: %v\nstderr:\n%s", np, err, stderr)
				}
				procFiles := filesUnder(t, procDir)
				if !strings.Contains(proc, p.stdout) || len(procFiles) != p.files {
					t.Fatalf("np %s proc wrote %d files, want %d, and must report %q:\n%s", np, len(procFiles), p.files, p.stdout, proc)
				}
				for _, transport := range []string{"loopback", "tcp"} {
					dir := t.TempDir()
					got, stderr, err := runIn(t, dir, bin, append(base, "-transport", transport)...)
					if err != nil {
						t.Fatalf("np %s %s: %v\nstderr:\n%s", np, transport, err, stderr)
					}
					if got != proc {
						t.Errorf("np %s %s output diverges from proc:\n--- proc:\n%s--- %s:\n%s",
							np, transport, proc, transport, got)
					}
					if files := filesUnder(t, dir); !reflect.DeepEqual(files, procFiles) {
						t.Errorf("np %s %s files diverge from proc: %d files vs %d, or different bytes",
							np, transport, len(files), len(procFiles))
					}
				}
			}
		})
	}
}

// TestPhastaSteer pins when a deck's steer line takes effect: "steer 3"
// retunes the jet before the third step, so a steered run writes the frames of
// an unsteered one for steps 1 and 2 and different frames from step 3 on.
func TestPhastaSteer(t *testing.T) {
	bin := buildTool(t, "gosensei-run")
	config := filepath.Join(t.TempDir(), "slice.xml")
	if err := os.WriteFile(config, []byte(`<sensei>
		<analysis type="catalyst" array="velocity" association="point" image-width="64" image-height="16"
		          slice-axis="z" slice-coord="1" output-dir="frames"/>
	</sensei>`), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(deck string) map[string][sha256.Size]byte {
		path := filepath.Join(t.TempDir(), "sim.deck")
		if err := os.WriteFile(path, []byte(deck), 0o644); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if _, stderr, err := runIn(t, dir, bin, "-np", "2", "-cells", "10", "-steps", "4",
			"-deck", path, "-config", config); err != nil {
			t.Fatalf("%v\nstderr:\n%s", err, stderr)
		}
		return filesUnder(t, dir)
	}
	plain := run("simulation phasta\n")
	steered := run("simulation phasta\nsteer 3 1.6 1.5\n")
	for step, want := range []bool{false, false, true, true} {
		name := filepath.Join("frames", fmt.Sprintf("slice_%05d.png", step+1))
		a, okA := plain[name]
		b, okB := steered[name]
		if !okA || !okB {
			t.Fatalf("%s missing: unsteered %v, steered %v", name, okA, okB)
		}
		if differ := a != b; differ != want {
			t.Errorf("%s: steered frame differs from unsteered: %v, want %v", name, differ, want)
		}
	}
}

// TestWorldSmokeRankkill asserts the fatal-fault contract across real
// processes: a world.rankkill schedule makes the victim process die, the
// launcher exits non-zero with the fault's distinct exit code, and the repro
// token appears on stderr so the failure can be replayed.
func TestWorldSmokeRankkill(t *testing.T) {
	bin := buildTool(t, "gosensei-run")
	const schedule = "7:world.rankkill(rank=2,op=4)"
	for _, transport := range []string{"loopback", "tcp"} {
		transport := transport
		t.Run(transport, func(t *testing.T) {
			t.Parallel()
			_, stderr, err := runStdout(t, bin,
				"-np", "4", "-transport", transport,
				"-config", repoFile(t, "configs", "histogram.xml"), "-cells", "8", "-steps", "5",
				"-faults", schedule)
			if err == nil {
				t.Fatal("fatal schedule exited zero")
			}
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("launcher did not run: %v", err)
			}
			if ee.ExitCode() != 3 {
				t.Errorf("exit code %d, want 3 (fault fired)\nstderr:\n%s", ee.ExitCode(), stderr)
			}
			if !strings.Contains(stderr, "world.rankkill(rank=2,op=4)") {
				t.Errorf("repro token missing from stderr:\n%s", stderr)
			}
		})
	}
}

// TestWorldSmokeInjectedCrash: an injected rank death is reported, not
// dumped. On goroutine ranks stderr is exactly the fired line and one error
// line; on a wire world each rank adds a line, none carries a stack, and
// the survivor learns of the death from its peer's closed connection
// instead of waiting out the receive timeout.
func TestWorldSmokeInjectedCrash(t *testing.T) {
	bin := buildTool(t, "gosensei-run")
	for _, transport := range []string{"proc", "loopback", "tcp"} {
		transport := transport
		t.Run(transport, func(t *testing.T) {
			t.Parallel()
			start := time.Now()
			_, stderr, err := runStdout(t, bin,
				"-np", "2", "-transport", transport, "-cells", "16", "-steps", "4",
				"-config", repoFile(t, "configs", "histogram.xml"),
				"-faults", "1:mpi.crash(rank=0,op=3)")
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 3 {
				t.Fatalf("%v, want exit code 3 (fault fired)\nstderr:\n%s", err, stderr)
			}
			if d := time.Since(start); d > 30*time.Second {
				t.Errorf("took %v to end", d)
			}
			if strings.Contains(stderr, "goroutine ") {
				t.Errorf("stderr carries a stack:\n%s", stderr)
			}
			if !strings.Contains(stderr, "faultline: fired mpi.crash(rank=0,op=3) x1\n") {
				t.Errorf("fired line missing from stderr:\n%s", stderr)
			}
			want := "faultline: fired mpi.crash(rank=0,op=3) x1\n" +
				"gosensei-run: mpi: rank 0: faultline: injected crash (mpi.crash(rank=0,op=3))\n"
			if transport == "proc" && stderr != want {
				t.Errorf("stderr %q, want %q", stderr, want)
			}
		})
	}
}
