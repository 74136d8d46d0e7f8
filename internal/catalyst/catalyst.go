// Package catalyst implements the ParaView-Catalyst-flavored in situ
// infrastructure of this reproduction: an analysis-pipeline engine that
// extracts a 2D slice from the 3D domain, pseudocolors it, composites the
// partial images across ranks with binary swap, and writes a PNG from
// rank 0 — the paper's "Catalyst-slice" configuration (default image
// 1920x1080).
//
// Like the original, the package exposes "Editions": named feature subsets
// that model the executable-size cost of linking the infrastructure (the
// paper reports a 153 MB statically linked PHASTA+Catalyst binary for the
// rendering Edition versus 87 MB dynamic).
package catalyst

import (
	"fmt"
	"image/color"
	"image/png"
	"math"

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
	core.RegisterFactory("catalyst", func(attrs *core.Attrs, b *core.Bridge) (core.AnalysisAdaptor, error) {
		cm, err := colormap.ByName(attrs.String("colormap", ""))
		if err != nil {
			return nil, err
		}
		a := NewSliceAdaptor(b.Comm, Options{
			ArrayName:       attrs.String("array", "data"),
			Assoc:           attrs.Association(),
			Width:           attrs.Int("image-width", 1920, 1),
			Height:          attrs.Int("image-height", 1080, 1),
			SliceAxis:       attrs.Choice("slice-axis", "z", "x", "y", "z"),
			SliceCoord:      attrs.Float("slice-coord", 0),
			Map:             cm,
			OutputDir:       attrs.String("output-dir", ""),
			SkipCompression: attrs.Bool("skip-png-compression", false),
			ParallelPNG:     attrs.Bool("parallel-png", false),
			Stride:          attrs.Int("stride", 1, 1),
			Publish:         b.Publish,
		})
		a.Registry = b.Registry
		a.Memory = b.Memory
		return a, nil
	})
}

// Options configures a Catalyst slice pipeline.
type Options struct {
	ArrayName  string
	Assoc      grid.Association
	Width      int
	Height     int
	SliceAxis  int
	SliceCoord float64
	Map        *colormap.Map
	// OutputDir receives slice_NNNNN.png files from rank 0; empty discards
	// the encoded bytes (the benchmark configuration).
	OutputDir string
	// SkipCompression turns PNG zlib compression off — the paper's PHASTA
	// ablation that cut per-step in situ time ~8x.
	SkipCompression bool
	// Stride runs the pipeline every Stride-th step (1 = every step).
	Stride int
	// Workers requests intra-rank parallelism for the render and encode
	// stages; 0 derives it from the process thread budget divided by the
	// communicator size. Output is bit-identical at any worker count.
	Workers int
	// ParallelPNG selects the stripe-parallel PNG encoder on rank 0; off
	// reproduces the paper's serial rank-0 encode.
	ParallelPNG bool
	// Edition selects the linked feature set; nil means RenderingEdition.
	Edition *Edition
	// Publish, when set, receives every composited frame's PNG for live
	// viewers (the ParaView-GUI live connection of the paper).
	Publish func(step, w, h int, png []byte)
}

// SliceAdaptor is the Catalyst analysis adaptor.
type SliceAdaptor struct {
	Comm     *mpi.Comm
	Opts     Options
	Registry *metrics.Registry
	Memory   *metrics.Tracker

	initialized bool
	imagesOut   int
}

// NewSliceAdaptor builds the adaptor; Initialize is performed lazily on the
// first Execute (and timed separately), as Catalyst does.
func NewSliceAdaptor(c *mpi.Comm, opts Options) *SliceAdaptor {
	if opts.Width <= 0 || opts.Height <= 0 {
		panic(fmt.Sprintf("catalyst: invalid image size %dx%d", opts.Width, opts.Height))
	}
	if opts.Stride <= 0 {
		opts.Stride = 1
	}
	if opts.Map == nil {
		opts.Map = colormap.CoolWarm()
	}
	if opts.Edition == nil {
		e := RenderingEdition()
		opts.Edition = &e
	}
	return &SliceAdaptor{Comm: c, Opts: opts}
}

// workers resolves the intra-rank worker count against the process thread
// budget, so goroutine-ranks times workers stays bounded under mpi.Run.
func (a *SliceAdaptor) workers() int { return parallel.Workers(a.Opts.Workers, a.Comm.Size()) }

// Initialize builds the pipeline: validates the Edition covers the needed
// features and accounts for the framebuffer memory.
func (a *SliceAdaptor) Initialize() error {
	for _, f := range []string{"slice", "render", "png"} {
		if !a.Opts.Edition.Has(f) {
			return fmt.Errorf("catalyst: edition %q lacks feature %q", a.Opts.Edition.Name, f)
		}
	}
	if a.Memory != nil {
		fbBytes := int64(a.Opts.Width) * int64(a.Opts.Height) * 8
		a.Memory.Alloc("catalyst/framebuffer", fbBytes)
		a.Memory.Alloc("catalyst/library", a.Opts.Edition.ResidentBytes)
	}
	a.initialized = true
	return nil
}

// Execute implements core.AnalysisAdaptor: extract, render, composite, and
// (on rank 0) serialize the slice image.
func (a *SliceAdaptor) Execute(d core.DataAdaptor) (bool, error) {
	step := d.TimeStep()
	a.Registry = metrics.OrNew(a.Registry, a.Comm.Rank())
	if !a.initialized {
		var err error
		a.Registry.Time("catalyst::initialize", step, func() { err = a.Initialize() })
		if err != nil {
			return false, err
		}
	}
	if step%a.Opts.Stride != 0 {
		return true, nil
	}
	mesh, err := core.FetchArray(d, a.Opts.Assoc, a.Opts.ArrayName)
	if err != nil {
		return false, err
	}
	spec, err := a.buildSpec(mesh)
	if err != nil {
		return false, err
	}
	t := a.tail()
	err = t.Image(step, a.Opts.Width, a.Opts.Height,
		func(fb *render.Framebuffer) error { return a.renderLocal(fb, mesh, spec) },
		func(final *render.Framebuffer) error {
			err := t.Deliver(final, step, func() string { return fmt.Sprintf("slice_%05d.png", step) })
			if err == nil {
				a.imagesOut++
			}
			return err
		})
	return err == nil, err
}

// tail is what this infrastructure brings to the shared image tail: binary
// swap, its timer names and background, the PNG options and where the bytes
// go. The PNG encode (the serial bottleneck) is logged as "catalyst::png".
func (a *SliceAdaptor) tail() compositing.Tail {
	t := compositing.Tail{
		Comm: a.Comm, Registry: a.Registry, Algorithm: compositing.BinarySwap,
		RenderTimer: "catalyst::render", CompositeTimer: "catalyst::composite", PNGTimer: "catalyst::png",
		Prefix: "catalyst", Background: color.RGBA{R: 18, G: 18, B: 24, A: 255},
		PNG: render.PNGOptions{Parallel: a.Opts.ParallelPNG, Workers: a.workers()},
		Dir: a.Opts.OutputDir, Publish: a.Opts.Publish,
	}
	if a.Opts.SkipCompression {
		t.PNG.Compression = png.NoCompression
	}
	return t
}

// buildSpec computes the shared slice specification: global bounds and
// scalar range via collectives.
func (a *SliceAdaptor) buildSpec(mesh grid.Dataset) (*render.SliceSpec, error) {
	// A MultiBlock is a reader serving several writers' blocks.
	blocks := []grid.Dataset{mesh}
	if mb, ok := mesh.(*grid.MultiBlock); ok {
		blocks = mb.Blocks
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	comp, found := 0, false
	for _, b := range blocks {
		if b == nil {
			continue
		}
		found = true
		arr := b.Attributes(a.Opts.Assoc).Get(a.Opts.ArrayName)
		if arr == nil {
			return nil, fmt.Errorf("catalyst: mesh lacks %s array %q", a.Opts.Assoc, a.Opts.ArrayName)
		}
		if arr.Components() > 1 {
			comp = -1 // pseudocolor by magnitude (velocity magnitude)
		}
		l, h := arr.Range(comp)
		lo, hi = math.Min(lo, l), math.Max(hi, h)
	}
	if !found {
		return nil, fmt.Errorf("catalyst: the %v mesh holds no block to slice", mesh.Kind())
	}
	lo, hi, bounds, err := compositing.AgreeRange(a.Comm, lo, hi, mesh.Bounds())
	if err != nil {
		return nil, err
	}
	return &render.SliceSpec{
		Plane:        render.AxisPlane(a.Opts.SliceAxis, a.Opts.SliceCoord),
		ArrayName:    a.Opts.ArrayName,
		Assoc:        a.Opts.Assoc,
		Lo:           lo,
		Hi:           hi,
		Map:          a.Opts.Map,
		DomainBounds: bounds,
		Workers:      a.workers(),
	}, nil
}

// renderLocal rasterizes this rank's portion of the slice.
func (a *SliceAdaptor) renderLocal(fb *render.Framebuffer, mesh grid.Dataset, spec *render.SliceSpec) error {
	switch g := mesh.(type) {
	case *grid.MultiBlock:
		for _, b := range g.Blocks {
			if b == nil {
				continue
			}
			if err := a.renderLocal(fb, b, spec); err != nil {
				return err
			}
		}
		return nil
	case *grid.ImageData:
		return render.ResampleImageSlice(fb, g, spec)
	case *grid.UnstructuredGrid:
		tris, err := render.SliceUnstructured(g, spec)
		if err != nil {
			return err
		}
		// Orthographic camera looking down the plane normal, framed on the
		// global domain.
		center, diag := render.BoxFrame(spec.DomainBounds)
		n := spec.Plane.Normal.Normalized()
		up := render.Vec3{0, 1, 0}
		if n[1] > 0.9 || n[1] < -0.9 {
			up = render.Vec3{1, 0, 0}
		}
		cam, err := render.NewCamera(center.Add(n.Scale(diag)), center, up, diag*1.1)
		if err != nil {
			return err
		}
		cm := spec.Map
		render.RenderMeshWorkers(fb, cam, tris, func(s float64) color.RGBA {
			return cm.Pseudocolor(s, spec.Lo, spec.Hi)
		}, spec.Workers)
		return nil
	default:
		return fmt.Errorf("catalyst: unsupported dataset kind %v", mesh.Kind())
	}
}

// Finalize implements core.AnalysisAdaptor.
func (a *SliceAdaptor) Finalize() error {
	if a.Memory != nil {
		a.Memory.FreeAll("catalyst/framebuffer")
	}
	return nil
}
