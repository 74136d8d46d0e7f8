// Package libsim implements the VisIt-Libsim-flavored in situ infrastructure
// of this reproduction. Visualizations are described by XML session files
// (VisIt saves these from its GUI); the adaptor parses the session on every
// rank at initialization — reproducing the per-rank configuration-file
// checks behind the paper's ~3.5 s Libsim init at 45K cores — then renders
// the configured plots (pseudocolor slices and isosurfaces), composites with
// a direct-send tree, and writes a PNG from rank 0 (default image
// 1600x1600, per the paper).
package libsim

import (
	"encoding/xml"
	"fmt"
	"image/color"
	"os"

	"gosensei/internal/colormap"
	"gosensei/internal/compositing"
	"gosensei/internal/core"
	"gosensei/internal/grid"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
	"gosensei/internal/parallel"
	"gosensei/internal/render"
)

func init() {
	core.RegisterFactory("libsim", func(attrs *core.Attrs, b *core.Bridge) (core.AnalysisAdaptor, error) {
		path := attrs.String("session", "")
		// Without a session file: one z slice of the named array.
		session := DefaultSliceSession(attrs.String("array", "data"), 0)
		if path != "" {
			var err error
			if session, err = LoadSession(path); err != nil {
				return nil, err
			}
		}
		session.Image.Width = attrs.Int("image-width", session.Image.Width, 1)
		session.Image.Height = attrs.Int("image-height", session.Image.Height, 1)
		a := NewAdaptor(b.Comm, session, Options{
			OutputDir:   attrs.String("output-dir", ""),
			Stride:      attrs.Int("stride", 1, 1),
			SessionPath: path,
			ParallelPNG: attrs.Bool("parallel-png", false),
			Publish:     b.Publish,
		})
		a.Registry = b.Registry
		a.Memory = b.Memory
		return a, nil
	})
}

// Session is a parsed VisIt-style session file.
type Session struct {
	XMLName xml.Name    `xml:"session"`
	Plots   []Plot      `xml:"plot"`
	Image   ImageConfig `xml:"image"`
}

// Plot is one visualization layer.
type Plot struct {
	// Type is "slice" (pseudocolor plane) or "isosurface".
	Type  string `xml:"type,attr"`
	Array string `xml:"array,attr"`
	// Association is "cell" or "point" (default cell; isosurfaces convert).
	Association string `xml:"association,attr"`
	// Slice parameters.
	Axis  string  `xml:"axis,attr"`
	Coord float64 `xml:"coord,attr"`
	// Isosurface parameters.
	Value   float64 `xml:"value,attr"`
	ColorBy string  `xml:"color-by,attr"`
	// Volume parameters: per-unit-length opacity of the normalized scalar.
	Opacity float64 `xml:"opacity,attr"`
	// Colormap preset name.
	Colormap string `xml:"colormap,attr"`
}

// ImageConfig sets the output image size.
type ImageConfig struct {
	Width  int `xml:"width,attr"`
	Height int `xml:"height,attr"`
}

// ParseSession parses session XML.
func ParseSession(doc []byte) (*Session, error) {
	var s Session
	if err := xml.Unmarshal(doc, &s); err != nil {
		return nil, fmt.Errorf("libsim: parse session: %w", err)
	}
	if len(s.Plots) == 0 {
		return nil, fmt.Errorf("libsim: session has no plots")
	}
	if s.Image.Width <= 0 {
		s.Image.Width = 1600
	}
	if s.Image.Height <= 0 {
		s.Image.Height = 1600
	}
	volumes := 0
	for i, p := range s.Plots {
		switch p.Type {
		case "slice", "isosurface":
		case "volume":
			volumes++
		default:
			return nil, fmt.Errorf("libsim: plot %d has unknown type %q", i, p.Type)
		}
		if p.Array == "" {
			return nil, fmt.Errorf("libsim: plot %d missing array", i)
		}
	}
	// Volume rendering uses ordered over-compositing, which cannot be merged
	// with depth-composited geometry in one image; a volume plot must be the
	// session's only plot.
	if volumes > 0 && len(s.Plots) > 1 {
		return nil, fmt.Errorf("libsim: a volume plot must be the session's only plot")
	}
	return &s, nil
}

// LoadSession reads and parses a session file from disk.
func LoadSession(path string) (*Session, error) {
	doc, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("libsim: %w", err)
	}
	return ParseSession(doc)
}

// DefaultSliceSession builds a one-plot session slicing the named array.
func DefaultSliceSession(arrayName string, coord float64) *Session {
	return &Session{
		Plots: []Plot{{Type: "slice", Array: arrayName, Axis: "z", Coord: coord}},
		Image: ImageConfig{Width: 1600, Height: 1600},
	}
}

// TMLSession reproduces the AVF-LESLIE visualization: three isosurfaces and
// three slice planes of vorticity magnitude.
func TMLSession(array string, isoValues [3]float64, sliceCoords [3]float64) *Session {
	s := &Session{Image: ImageConfig{Width: 1600, Height: 1600}}
	axes := [3]string{"x", "y", "z"}
	for i := 0; i < 3; i++ {
		s.Plots = append(s.Plots, Plot{
			Type: "isosurface", Array: array,
			Value: isoValues[i], ColorBy: array, Colormap: "viridis",
		})
	}
	for i := 0; i < 3; i++ {
		s.Plots = append(s.Plots, Plot{
			Type: "slice", Array: array,
			Axis: axes[i], Coord: sliceCoords[i], Colormap: "viridis",
		})
	}
	return s
}

// Options configures the adaptor.
type Options struct {
	// OutputDir receives visit_NNNNN.png from rank 0; empty discards.
	OutputDir string
	// Stride runs the visualization every Stride-th invocation; the
	// AVF-LESLIE runs used 5.
	Stride int
	// SessionPath, when set, is stat'ed by every rank during initialization
	// (the per-rank config check the paper measured).
	SessionPath string
	// Publish, when set, receives every composited frame's PNG for live
	// viewers (the VisIt live-connection capability).
	Publish func(step, w, h int, png []byte)
	// ParallelPNG selects the stripe-parallel PNG encoder on rank 0; off
	// reproduces the paper's serial rank-0 encode.
	ParallelPNG bool
}

// Adaptor is the Libsim analysis adaptor.
type Adaptor struct {
	Comm     *mpi.Comm
	Session  *Session
	Opts     Options
	Registry *metrics.Registry
	Memory   *metrics.Tracker

	initialized bool
	imagesOut   int
	execIndex   int
}

// NewAdaptor builds the adaptor.
func NewAdaptor(c *mpi.Comm, session *Session, opts Options) *Adaptor {
	if opts.Stride <= 0 {
		opts.Stride = 1
	}
	return &Adaptor{Comm: c, Session: session, Opts: opts}
}

// workers is the intra-rank parallelism of the render and encode stages: the
// process thread budget divided by the communicator size, so goroutine-ranks
// times workers stays bounded under mpi.Run. Output is bit-identical at any
// worker count.
func (a *Adaptor) workers() int { return parallel.Budget(a.Comm.Size()) }

// Initialize performs the per-rank startup work: the configuration-file
// check (a real stat per rank) and framebuffer accounting.
func (a *Adaptor) Initialize() error {
	if a.Opts.SessionPath != "" {
		// Every rank checks the session file — the access pattern whose
		// metadata cost the paper observed growing with processor count.
		if _, err := os.Stat(a.Opts.SessionPath); err != nil {
			return fmt.Errorf("libsim: session check: %w", err)
		}
	}
	if a.Memory != nil {
		fbBytes := int64(a.Session.Image.Width) * int64(a.Session.Image.Height) * 8
		a.Memory.Alloc("libsim/framebuffer", fbBytes)
	}
	a.initialized = true
	return nil
}

// Execute implements core.AnalysisAdaptor.
func (a *Adaptor) Execute(d core.DataAdaptor) (bool, error) {
	step := d.TimeStep()
	a.Registry = metrics.OrNew(a.Registry, a.Comm.Rank())
	if !a.initialized {
		var err error
		a.Registry.Time("libsim::initialize", step, func() { err = a.Initialize() })
		if err != nil {
			return false, err
		}
	}
	idx := a.execIndex
	a.execIndex++
	if idx%a.Opts.Stride != 0 {
		// Off-stride steps still pass through SENSEI (cheap), like
		// AVF-LESLIE's 4-out-of-5 low-cost invocations.
		a.Registry.Log("libsim::skip", step, 0)
		return true, nil
	}
	t := a.tail()
	var err error
	if len(a.Session.Plots) == 1 && a.Session.Plots[0].Type == "volume" {
		err = a.executeVolume(&t, d, step)
	} else {
		err = t.Image(step, a.Session.Image.Width, a.Session.Image.Height,
			func(fb *render.Framebuffer) error { return a.renderPlots(d, fb) },
			func(final *render.Framebuffer) error { return a.writeImage(&t, final, step) })
	}
	return err == nil, err
}

// tail is what this infrastructure brings to the shared image tail: the
// direct-send tree, its timer names and background, and where the bytes go.
func (a *Adaptor) tail() compositing.Tail {
	t := compositing.Tail{
		Comm: a.Comm, Registry: a.Registry, Algorithm: compositing.DirectSend,
		RenderTimer: "libsim::render", CompositeTimer: "libsim::composite", PNGTimer: "libsim::png",
		Prefix: "libsim", Background: color.RGBA{R: 12, G: 12, B: 16, A: 255},
		PNG: render.PNGOptions{Parallel: a.Opts.ParallelPNG, Workers: a.workers()},
		Dir: a.Opts.OutputDir, Publish: a.Opts.Publish,
	}
	return t
}

// writeImage delivers the composited image from rank 0 as visit_NNNNN.png.
func (a *Adaptor) writeImage(t *compositing.Tail, final *render.Framebuffer, step int) error {
	err := t.Deliver(final, step, func() string { return fmt.Sprintf("visit_%05d.png", step) })
	if err == nil {
		a.imagesOut++
	}
	return err
}

// executeVolume runs the direct-volume-rendering path: axis-aligned ray
// marching per rank, then strict front-to-back over-compositing across the
// rank order along the view axis. Alpha images are not framebuffers, so only
// the delivery is the shared tail's.
func (a *Adaptor) executeVolume(t *compositing.Tail, d core.DataAdaptor, step int) error {
	p := a.Session.Plots[0]
	mesh, err := core.FetchArray(d, grid.CellData, p.Array)
	if err != nil {
		return err
	}
	img, ok := mesh.(*grid.ImageData)
	if !ok {
		return fmt.Errorf("libsim: volume rendering needs structured data, got %v", mesh.Kind())
	}
	cm, err := colormap.ByName(p.Colormap)
	if err != nil {
		return err
	}
	lo, hi, bounds, err := a.globalRange(img, grid.CellData, p.Array)
	if err != nil {
		return err
	}
	axis := map[string]int{"x": 0, "y": 1, "z": 2}[p.Axis]
	opacity := p.Opacity
	if opacity <= 0 {
		opacity = 3
	}
	spec := &render.VolumeSpec{
		ArrayName: p.Array, Axis: axis, Lo: lo, Hi: hi,
		Map: cm, OpacityScale: opacity, DomainBounds: bounds,
		Workers: a.workers(),
	}
	var (
		local    *render.AlphaImage
		orderKey int
	)
	a.Registry.Time("libsim::render", step, func() {
		local, orderKey, err = render.RayMarchLocalSized(img, spec, a.Session.Image.Width, a.Session.Image.Height)
	})
	if err != nil {
		return err
	}
	var final *render.AlphaImage
	a.Registry.Time("libsim::composite", step, func() {
		final, err = compositing.OverComposite(a.Comm, local, orderKey, 0)
	})
	if err != nil || final == nil {
		return err
	}
	fb := final.ToFramebuffer(0.05, 0.05, 0.08)
	err = a.writeImage(t, fb, step)
	fb.Release()
	return err
}

// renderPlots draws every plot of the session into the local framebuffer.
func (a *Adaptor) renderPlots(d core.DataAdaptor, fb *render.Framebuffer) error {
	for i, p := range a.Session.Plots {
		assoc := grid.CellData
		if p.Association == "point" {
			assoc = grid.PointData
		}
		mesh, err := core.FetchArray(d, assoc, p.Array)
		if err != nil {
			return fmt.Errorf("plot %d: %w", i, err)
		}
		img, ok := mesh.(*grid.ImageData)
		if !ok {
			return fmt.Errorf("plot %d: libsim supports structured data, got %v", i, mesh.Kind())
		}
		cm, err := colormap.ByName(p.Colormap)
		if err != nil {
			return fmt.Errorf("plot %d: %w", i, err)
		}
		lo, hi, bounds, err := a.globalRange(img, assoc, p.Array)
		if err != nil {
			return err
		}
		switch p.Type {
		case "slice":
			axis := map[string]int{"x": 0, "y": 1, "z": 2}[p.Axis]
			spec := &render.SliceSpec{
				Plane: render.AxisPlane(axis, p.Coord), ArrayName: p.Array,
				Assoc: assoc, Lo: lo, Hi: hi, Map: cm, DomainBounds: bounds,
				Workers: a.workers(),
			}
			if err := a.renderSlice3D(fb, img, spec, bounds); err != nil {
				return fmt.Errorf("plot %d: %w", i, err)
			}
		case "isosurface":
			name := p.Array
			if assoc == grid.CellData {
				if err := render.CellToPointScalars(img, name); err != nil {
					return fmt.Errorf("plot %d: %w", i, err)
				}
			}
			tris, err := render.IsosurfaceWorkers(img, name, p.Value, p.ColorBy, a.workers())
			if err != nil {
				return fmt.Errorf("plot %d: %w", i, err)
			}
			cam := render.DefaultCamera(bounds)
			render.RenderMeshWorkers(fb, cam, tris, func(s float64) color.RGBA {
				return cm.Pseudocolor(s, lo, hi)
			}, a.workers())
		}
	}
	return nil
}

// renderSlice3D rasterizes a slice plane as geometry in the 3D scene (so it
// composes with isosurfaces in the same image, as the TML visualization
// does): the plane rectangle is triangulated and textured by sampling.
func (a *Adaptor) renderSlice3D(fb *render.Framebuffer, img *grid.ImageData, spec *render.SliceSpec, bounds [6]float64) error {
	cam := render.DefaultCamera(bounds)
	// Sample the slice on a coarse grid of quads in the plane, each
	// pseudocolored by the local data where this rank owns the sample.
	const n = 96
	u, v, umin, umax, vmin, vmax := spec.PlaneWindow()
	du := (umax - umin) / n
	dv := (vmax - vmin) / n
	lb := img.Bounds()
	cm := spec.Map
	for jj := 0; jj < n; jj++ {
		for ii := 0; ii < n; ii++ {
			c0 := spec.Plane.Origin.Add(u.Scale(umin + float64(ii)*du)).Add(v.Scale(vmin + float64(jj)*dv))
			cc := c0.Add(u.Scale(du / 2)).Add(v.Scale(dv / 2))
			// Only the owning rank draws this sample cell.
			if cc[0] < lb[0] || cc[0] >= lb[1] || cc[1] < lb[2] || cc[1] >= lb[3] || cc[2] < lb[4] || cc[2] >= lb[5] {
				continue
			}
			val, ok := sampleAt(img, spec, cc)
			if !ok {
				continue
			}
			col := cm.Pseudocolor(val, spec.Lo, spec.Hi)
			p1 := c0.Add(u.Scale(du))
			p2 := c0.Add(u.Scale(du)).Add(v.Scale(dv))
			p3 := c0.Add(v.Scale(dv))
			quad := [4]render.Vec3{c0, p1, p2, p3}
			var vtx [4]render.Vertex
			for k, p := range quad {
				px, py, depth := cam.Project(p, fb.W, fb.H)
				vtx[k] = render.Vertex{X: px, Y: py, Depth: depth}
			}
			flat := func(float64) color.RGBA { return col }
			render.RasterizeTriangle(fb, vtx[0], vtx[1], vtx[2], flat)
			render.RasterizeTriangle(fb, vtx[0], vtx[2], vtx[3], flat)
		}
	}
	return nil
}

// sampleAt fetches the scalar at a world point from the local block.
func sampleAt(img *grid.ImageData, spec *render.SliceSpec, w render.Vec3) (float64, bool) {
	arr := img.Attributes(spec.Assoc).Get(spec.ArrayName)
	if arr == nil {
		return 0, false
	}
	fi := (w[0] - img.Origin[0]) / img.Spacing[0]
	fj := (w[1] - img.Origin[1]) / img.Spacing[1]
	fk := (w[2] - img.Origin[2]) / img.Spacing[2]
	ext := img.Extent
	if spec.Assoc == grid.CellData {
		cx, cy, cz := ext.CellDims()
		ci, cj, ck := int(fi)-ext[0], int(fj)-ext[2], int(fk)-ext[4]
		if ci < 0 || ci >= cx || cj < 0 || cj >= cy || ck < 0 || ck >= cz {
			return 0, false
		}
		return arr.Value(ck*cx*cy+cj*cx+ci, 0), true
	}
	nx, ny, nz := ext.Dims()
	i, j, k := int(fi+0.5)-ext[0], int(fj+0.5)-ext[2], int(fk+0.5)-ext[4]
	if i < 0 || i >= nx || j < 0 || j >= ny || k < 0 || k >= nz {
		return 0, false
	}
	return arr.Value(k*nx*ny+j*nx+i, 0), true
}

// globalRange agrees on scalar range and domain bounds across ranks.
func (a *Adaptor) globalRange(img *grid.ImageData, assoc grid.Association, name string) (lo, hi float64, bounds [6]float64, err error) {
	arr := img.Attributes(assoc).Get(name)
	if arr == nil {
		return 0, 0, bounds, fmt.Errorf("libsim: mesh lacks %s array %q", assoc, name)
	}
	lo, hi = arr.Range(0)
	return compositing.AgreeRange(a.Comm, lo, hi, img.Bounds())
}

// Finalize implements core.AnalysisAdaptor.
func (a *Adaptor) Finalize() error {
	if a.Memory != nil {
		a.Memory.FreeAll("libsim/framebuffer")
	}
	return nil
}
