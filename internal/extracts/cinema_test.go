package extracts

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"image/png"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"testing"

	"gosensei/internal/core"
	"gosensei/internal/mpi"
	"gosensei/internal/oscillator"
	"gosensei/internal/render"
)

func runCinema(t *testing.T, nRanks, steps int, spec Spec) *Index {
	t.Helper()
	cfg := oscillator.Config{
		GlobalCells: [3]int{12, 12, 12},
		DT:          0.1,
		Steps:       steps,
		Oscillators: oscillator.DefaultDeck(12),
	}
	err := mpi.Run(nRanks, func(c *mpi.Comm) error {
		s, err := oscillator.NewSim(c, cfg, nil)
		if err != nil {
			return err
		}
		cn := New(c, spec)
		b := core.NewBridge(c, nil, nil)
		b.AddAnalysis("cinema", cn)
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
	})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := LoadIndex(spec.OutputDir)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func baseSpec(dir string) Spec {
	return Spec{
		ArrayName: "data",
		IsoValues: []float64{0.4, 0.7},
		Phi:       []float64{0, 90},
		Theta:     []float64{30},
		Width:     48,
		Height:    48,
		OutputDir: dir,
	}
}

func TestCinemaStoreComplete(t *testing.T) {
	dir := t.TempDir()
	steps := 2
	ix := runCinema(t, 2, steps, baseSpec(dir))
	// 2 steps x 2 isos x 2 phis x 1 theta = 8 images.
	want := steps * 2 * 2 * 1
	if len(ix.Entries) != want {
		t.Fatalf("entries=%d want %d", len(ix.Entries), want)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.png"))
	if len(files) != want {
		t.Fatalf("images=%d want %d", len(files), want)
	}
	// Every image decodes at the declared size.
	f, err := os.Open(filepath.Join(dir, ix.Entries[0].File))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	img, err := png.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 48 || img.Bounds().Dy() != 48 {
		t.Fatalf("image bounds %v", img.Bounds())
	}
}

func TestCinemaLookup(t *testing.T) {
	dir := t.TempDir()
	ix := runCinema(t, 1, 2, baseSpec(dir))
	lookup := func(step int, iso, phi, theta float64) (Entry, bool) {
		for _, e := range ix.Entries {
			if e.Step == step && e.Iso == iso && e.Phi == phi && e.Theta == theta {
				return e, true
			}
		}
		return Entry{}, false
	}
	e, ok := lookup(2, 0.7, 90, 30)
	if !ok {
		t.Fatalf("entry not found; have %+v", ix.Entries)
	}
	if e.File == "" || e.Step != 2 {
		t.Fatalf("entry=%+v", e)
	}
	if _, ok := lookup(99, 0.7, 90, 30); ok {
		t.Fatal("phantom entry")
	}
}

func TestCinemaStride(t *testing.T) {
	dir := t.TempDir()
	spec := baseSpec(dir)
	spec.Stride = 2
	spec.IsoValues = []float64{0.5}
	spec.Phi = []float64{0}
	ix := runCinema(t, 1, 4, spec)
	// Executions 0 and 2 fire -> 2 images.
	if len(ix.Entries) != 2 {
		t.Fatalf("entries=%d want 2", len(ix.Entries))
	}
}

func TestSpecValidate(t *testing.T) {
	good := baseSpec("x")
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func(*Spec){
		"no array":   func(s *Spec) { s.ArrayName = "" },
		"no isos":    func(s *Spec) { s.IsoValues = nil },
		"bad iso":    func(s *Spec) { s.IsoValues = []float64{1.5} },
		"no phi":     func(s *Spec) { s.Phi = nil },
		"bad size":   func(s *Spec) { s.Width = 0 },
		"no out dir": func(s *Spec) { s.OutputDir = "" },
	} {
		bad := baseSpec("x")
		mut(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestOrbitAngles(t *testing.T) {
	a := orbit(4, 0, 360)
	if len(a) != 4 || a[0] != 0 || a[1] != 90 || a[3] != 270 {
		t.Fatalf("orbit=%v", a)
	}
	if got := orbit(0, 0, 360); len(got) != 1 {
		t.Fatalf("orbit(0)=%v", got)
	}
}

func TestFactoryRegistered(t *testing.T) {
	dir := t.TempDir()
	err := mpi.Run(1, func(c *mpi.Comm) error {
		b := core.NewBridge(c, nil, nil)
		doc := []byte(`<sensei><analysis type="cinema" array="data" phi-count="2" theta-count="1"
			image-width="32" image-height="32" output-dir="` + dir + `"/></sensei>`)
		if err := core.ConfigureFromXML(b, doc); err != nil {
			return err
		}
		if b.AnalysisCount() != 1 {
			t.Error("cinema factory missing")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLoadIndexMissing(t *testing.T) {
	if _, err := LoadIndex(t.TempDir()); err == nil {
		t.Fatal("missing index accepted")
	}
}

// TestCinemaReusesFramebuffers: every view takes its framebuffer from the
// render pool and puts it back, so a second Execute finds them there instead
// of allocating W×H×8 bytes per view (and draining the pool catalyst and
// libsim refill). Re-rendering the same step from a recycled buffer must
// produce the same bytes as the fresh one did.
func TestCinemaReusesFramebuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries at random")
	}
	spec := baseSpec(t.TempDir())
	spec.IsoValues = []float64{0.5}
	// Large enough that image/png's ~1 MiB of deflate state, should the
	// encoder pool miss once, is small next to a framebuffer (12 MiB).
	spec.Width, spec.Height = 1536, 1024
	views := len(spec.IsoValues) * len(spec.Phi) * len(spec.Theta)
	if views != 2 {
		t.Fatalf("spec has %d views, want 2", views)
	}
	cfg := oscillator.Config{
		GlobalCells: [3]int{12, 12, 12},
		DT:          0.1,
		Steps:       1,
		Oscillators: oscillator.DefaultDeck(12),
	}
	// What is under test is who releases, not how long a sync.Pool
	// remembers: collection is held off across both executes, so none can
	// empty the pools between them, and on one P a buffer put back is found
	// by the next Get instead of sitting in another P's private slot.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	readFrames := func(cn *Cinema) [][]byte {
		var out [][]byte
		for _, e := range cn.index.Entries[len(cn.index.Entries)-views:] {
			data, err := os.ReadFile(filepath.Join(spec.OutputDir, e.File))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, data)
		}
		return out
	}
	err := mpi.Run(1, func(c *mpi.Comm) error {
		s, err := oscillator.NewSim(c, cfg, nil)
		if err != nil {
			return err
		}
		if err := s.Step(); err != nil {
			return err
		}
		d := oscillator.NewDataAdaptor(s)
		d.Update()
		cn := New(c, spec)
		if _, err := cn.Execute(d); err != nil {
			return err
		}
		first := readFrames(cn)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := cn.Execute(d); err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		fresh := uint64(views * spec.Width * spec.Height * 8)
		// The serial PNG path encodes the framebuffer in place with pooled
		// encoder state, so one framebuffer, or one colour plane, allocated
		// anywhere in the second Execute is far over a sixteenth of fresh.
		if got := after.TotalAlloc - before.TotalAlloc; got > fresh/16 {
			t.Errorf("second Execute allocated %d bytes; %d views of fresh framebuffers are %d", got, views, fresh)
		} else {
			t.Logf("second Execute allocated %d bytes (%d views of fresh framebuffers are %d)", got, views, fresh)
		}
		if len(cn.index.Entries) != 2*views {
			t.Errorf("index has %d entries after two executes, want %d", len(cn.index.Entries), 2*views)
		}
		for i, data := range readFrames(cn) {
			if !bytes.Equal(data, first[i]) {
				t.Errorf("view %d: PNG bytes from a recycled framebuffer differ from the fresh render", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A view whose bytes never landed is an error and gets no index entry: the
// first view's file name is a link to /dev/full, which fails every write.
func TestCinemaWriteFailureIsNotIndexed(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	spec := baseSpec(t.TempDir())
	if err := os.Symlink("/dev/full", filepath.Join(spec.OutputDir, "s00001_i0.400_p0000.0_t030.0.png")); err != nil {
		t.Fatal(err)
	}
	cfg := oscillator.Config{
		GlobalCells: [3]int{12, 12, 12},
		DT:          0.1,
		Steps:       1,
		Oscillators: oscillator.DefaultDeck(12),
	}
	err := mpi.Run(1, func(c *mpi.Comm) error {
		s, err := oscillator.NewSim(c, cfg, nil)
		if err != nil {
			return err
		}
		if err := s.Step(); err != nil {
			return err
		}
		d := oscillator.NewDataAdaptor(s)
		d.Update()
		cn := New(c, spec)
		inUse := render.FramebuffersInUse()
		_, err = cn.Execute(d)
		if !errors.Is(err, syscall.ENOSPC) || !strings.HasPrefix(err.Error(), "extracts: ") {
			t.Errorf("Execute: %v, want this package's ENOSPC", err)
		}
		if n := len(cn.index.Entries); n != 0 {
			t.Errorf("index has %d entries, no view landed", n)
		}
		if got := render.FramebuffersInUse(); got != inUse {
			t.Errorf("framebuffers in use: %d before, %d after the failed view", inUse, got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// LoadIndex reads a store's catalog, as post hoc exploration would.
func LoadIndex(dir string) (*Index, error) {
	doc, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if err != nil {
		return nil, fmt.Errorf("extracts: %w", err)
	}
	var ix Index
	if err := json.Unmarshal(doc, &ix); err != nil {
		return nil, fmt.Errorf("extracts: parse index: %w", err)
	}
	return &ix, nil
}
