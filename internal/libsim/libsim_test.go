package libsim

import (
	"image/png"
	"os"
	"path/filepath"
	"testing"

	"gosensei/internal/core"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
	"gosensei/internal/oscillator"
)

func TestParseSession(t *testing.T) {
	doc := []byte(`<session>
		<image width="320" height="200"/>
		<plot type="slice" array="data" axis="z" coord="8" colormap="viridis"/>
		<plot type="isosurface" array="data" value="0.4" color-by="data"/>
	</session>`)
	s, err := ParseSession(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Plots) != 2 || s.Image.Width != 320 || s.Image.Height != 200 {
		t.Fatalf("session=%+v", s)
	}
	if s.Plots[0].Coord != 8 || s.Plots[1].Value != 0.4 {
		t.Fatalf("plots=%+v", s.Plots)
	}
}

func TestParseSessionDefaultsAndErrors(t *testing.T) {
	s, err := ParseSession([]byte(`<session><plot type="slice" array="d"/></session>`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Image.Width != 1600 || s.Image.Height != 1600 {
		t.Fatalf("default image size %dx%d, paper uses 1600x1600", s.Image.Width, s.Image.Height)
	}
	for name, doc := range map[string]string{
		"no plots":    `<session></session>`,
		"bad type":    `<session><plot type="streamline" array="d"/></session>`,
		"missing arr": `<session><plot type="slice"/></session>`,
		"not xml":     `<session`,
	} {
		if _, err := ParseSession([]byte(doc)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestLoadSessionFromDisk(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "viz.session")
	if err := os.WriteFile(path, []byte(`<session><plot type="slice" array="data" axis="z" coord="4"/></session>`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadSession(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Plots) != 1 {
		t.Fatal("plot lost")
	}
	if _, err := LoadSession(filepath.Join(dir, "missing.session")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestTMLSessionShape(t *testing.T) {
	s := TMLSession("vorticity", [3]float64{0.2, 0.4, 0.6}, [3]float64{1, 2, 3})
	iso, slice := 0, 0
	for _, p := range s.Plots {
		switch p.Type {
		case "isosurface":
			iso++
		case "slice":
			slice++
		}
	}
	if iso != 3 || slice != 3 {
		t.Fatalf("TML session should have 3 isosurfaces and 3 slices, got %d/%d", iso, slice)
	}
}

// runSession drives the 12³ oscillator deck through one Libsim adaptor per
// rank and returns the ranks' registries.
func runSession(t *testing.T, nRanks, steps int, opts Options, session func() (*Session, error)) []*metrics.Registry {
	t.Helper()
	cfg := oscillator.Config{
		GlobalCells: [3]int{12, 12, 12},
		DT:          0.1,
		Steps:       steps,
		Oscillators: oscillator.DefaultDeck(12),
	}
	regs := make([]*metrics.Registry, nRanks)
	err := mpi.Run(nRanks, func(c *mpi.Comm) error {
		reg := metrics.NewRegistry(c.Rank())
		regs[c.Rank()] = reg
		s, err := oscillator.NewSim(c, cfg, nil)
		if err != nil {
			return err
		}
		sess, err := session()
		if err != nil {
			return err
		}
		a := NewAdaptor(c, sess, opts)
		a.Registry = reg
		b := core.NewBridge(c, reg, nil)
		b.AddAnalysis("libsim", a)
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
	return regs
}

func sliceAndIsoSession() (*Session, error) {
	return &Session{
		Plots: []Plot{
			{Type: "slice", Array: "data", Axis: "z", Coord: 6},
			{Type: "isosurface", Array: "data", Value: 0.3, Colormap: "viridis"},
		},
		Image: ImageConfig{Width: 48, Height: 48},
	}, nil
}

func volumeSession() (*Session, error) {
	return ParseSession([]byte(
		`<session><image width="40" height="40"/>` +
			`<plot type="volume" array="data" axis="z" opacity="0.15" colormap="viridis"/></session>`))
}

func runWithLibsim(t *testing.T, nRanks, steps, stride int, dir string) []*metrics.Registry {
	t.Helper()
	return runSession(t, nRanks, steps, Options{OutputDir: dir, Stride: stride}, sliceAndIsoSession)
}

func TestAdaptorRendersAndWrites(t *testing.T) {
	dir := t.TempDir()
	runWithLibsim(t, 3, 2, 1, dir)
	files, _ := filepath.Glob(filepath.Join(dir, "visit_*.png"))
	if len(files) != 2 {
		t.Fatalf("expected 2 images, got %v", files)
	}
}

func TestAdaptorStrideEveryFive(t *testing.T) {
	// The AVF-LESLIE configuration: Libsim analysis every 5 invocations.
	dir := t.TempDir()
	regs := runWithLibsim(t, 2, 10, 5, dir)
	files, _ := filepath.Glob(filepath.Join(dir, "visit_*.png"))
	if len(files) != 2 {
		t.Fatalf("stride 5 over 10 steps should write 2 images, got %d", len(files))
	}
	// 4/5 of the invocations must be cheap skips.
	skips := len(regs[0].EventsNamed("libsim::skip"))
	if skips != 8 {
		t.Fatalf("skips=%d want 8", skips)
	}
}

func TestAdaptorTimersPresent(t *testing.T) {
	regs := runWithLibsim(t, 2, 1, 1, "")
	names := regs[0].TimerNames()
	want := map[string]bool{"libsim::initialize": false, "libsim::render": false, "libsim::composite": false, "libsim::png": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("missing %s in %v", k, names)
		}
	}
	// Non-root ranks render and composite but never encode.
	for _, n := range regs[1].TimerNames() {
		if n == "libsim::png" {
			t.Error("non-root rank encoded a PNG")
		}
	}
}

func TestInitializeChecksSessionFile(t *testing.T) {
	a := NewAdaptor(nil, DefaultSliceSession("data", 0), Options{SessionPath: "/nonexistent/session.xml"})
	if err := a.Initialize(); err == nil {
		t.Fatal("missing session file not detected")
	}
	dir := t.TempDir()
	p := filepath.Join(dir, "s.xml")
	if err := os.WriteFile(p, []byte("<session/>"), 0o644); err != nil {
		t.Fatal(err)
	}
	a2 := NewAdaptor(nil, DefaultSliceSession("data", 0), Options{SessionPath: p})
	if err := a2.Initialize(); err != nil {
		t.Fatal(err)
	}
}

func TestFactoryFromXML(t *testing.T) {
	err := mpi.Run(1, func(c *mpi.Comm) error {
		b := core.NewBridge(c, nil, nil)
		doc := []byte(`<sensei>
			<analysis type="libsim" array="data" image-width="32" image-height="32" stride="5"/>
		</sensei>`)
		if err := core.ConfigureFromXML(b, doc); err != nil {
			return err
		}
		if b.AnalysisCount() != 1 {
			t.Error("libsim factory not registered")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVolumeSession(t *testing.T) {
	dir := t.TempDir()
	runSession(t, 3, 2, Options{OutputDir: dir}, volumeSession)
	files, _ := filepath.Glob(filepath.Join(dir, "visit_*.png"))
	if len(files) != 2 {
		t.Fatalf("volume session wrote %d images, want 2", len(files))
	}
	// The image must show structure (the oscillator blobs), not a constant.
	// The first frame is step 1 at t=0, where every oscillator amplitude is
	// zero (a fully transparent volume), so inspect the second frame.
	f, err := os.Open(files[len(files)-1])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	img, err := png.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	colors := map[[3]uint32]bool{}
	for y := 0; y < 40; y += 4 {
		for x := 0; x < 40; x += 4 {
			r, g, bl, _ := img.At(x, y).RGBA()
			colors[[3]uint32{r, g, bl}] = true
		}
	}
	if len(colors) < 3 {
		t.Fatalf("volume image too uniform: %d distinct sample colors", len(colors))
	}
}

func TestVolumeMustBeOnlyPlot(t *testing.T) {
	_, err := ParseSession([]byte(
		`<session><plot type="volume" array="data"/><plot type="slice" array="data"/></session>`))
	if err == nil {
		t.Fatal("mixed volume session accepted")
	}
}
