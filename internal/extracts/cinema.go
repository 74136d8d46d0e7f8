// Package extracts implements the "explorable data products" direction the
// SC16 SENSEI paper surveys in §2.2.4 (Globus 1995; Ye 2013; Ahrens 2014's
// Cinema): instead of one fixed view, the in situ step renders a database of
// images over a sweep of camera angles and isovalues, plus a JSON index, so
// that *post hoc* exploration — changing viewpoint or contour level — needs
// only the tiny extract store, never the full-resolution data.
//
// The paper notes these methods "will be run in situ, most likely using one
// of the infrastructures we study"; accordingly the Cinema writer here is an
// ordinary core.AnalysisAdaptor sharing the same rendering and compositing
// substrate as the Catalyst and Libsim adaptors.
package extracts

import (
	"encoding/json"
	"fmt"
	"image/color"
	"math"
	"os"
	"path/filepath"

	"gosensei/internal/colormap"
	"gosensei/internal/compositing"
	"gosensei/internal/core"
	"gosensei/internal/grid"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
	"gosensei/internal/render"
)

func init() {
	core.RegisterFactory("cinema", func(attrs *core.Attrs, b *core.Bridge) (core.AnalysisAdaptor, error) {
		cm, err := colormap.ByName(attrs.String("colormap", "viridis"))
		if err != nil {
			return nil, err
		}
		a := New(b.Comm, Spec{
			ArrayName: attrs.String("array", "data"),
			IsoValues: []float64{attrs.Float("iso", 0.5)},
			Phi:       orbit(attrs.Int("phi-count", 4, 1), 0, 360),
			Theta:     orbit(attrs.Int("theta-count", 2, 1), 15, 75),
			Width:     attrs.Int("image-width", 256, 1),
			Height:    attrs.Int("image-height", 256, 1),
			OutputDir: attrs.String("output-dir", "cinema-store"),
			Map:       cm,
		})
		a.Registry = b.Registry
		return a, nil
	})
}

// orbit returns n angles evenly spread over [lo, hi) degrees.
func orbit(n int, lo, hi float64) []float64 {
	if n < 1 {
		n = 1
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n)
	}
	return out
}

// Spec describes one Cinema-style extract database.
type Spec struct {
	// ArrayName is the cell scalar to contour (converted to points).
	ArrayName string
	// IsoValues are the contour levels in NORMALIZED [0, 1] data range;
	// every step maps them onto that step's global [min, max].
	IsoValues []float64
	// Phi are azimuth angles in degrees; Theta are elevations.
	Phi, Theta []float64
	// Width, Height size every image.
	Width, Height int
	// OutputDir receives the store: images plus index.json.
	OutputDir string
	// Map colors the surfaces by the contoured scalar.
	Map *colormap.Map
	// Stride runs the extract every Stride-th step.
	Stride int
}

// Validate checks the spec.
func (s *Spec) Validate() error {
	if s.ArrayName == "" {
		return fmt.Errorf("extracts: array name required")
	}
	if len(s.IsoValues) == 0 || len(s.Phi) == 0 || len(s.Theta) == 0 {
		return fmt.Errorf("extracts: need at least one isovalue, phi, and theta")
	}
	for _, v := range s.IsoValues {
		if v < 0 || v > 1 {
			return fmt.Errorf("extracts: isovalue %v outside normalized [0,1]", v)
		}
	}
	if s.Width <= 0 || s.Height <= 0 {
		return fmt.Errorf("extracts: invalid image size %dx%d", s.Width, s.Height)
	}
	if s.OutputDir == "" {
		return fmt.Errorf("extracts: output dir required")
	}
	return nil
}

// Entry is one image of the database.
type Entry struct {
	File  string  `json:"file"`
	Step  int     `json:"step"`
	Time  float64 `json:"time"`
	Iso   float64 `json:"iso"`
	Phi   float64 `json:"phi"`
	Theta float64 `json:"theta"`
}

// Index is the store's machine-readable catalog (the role of Cinema's
// info.json): the swept parameters and every image keyed by them.
type Index struct {
	Array   string    `json:"array"`
	Width   int       `json:"width"`
	Height  int       `json:"height"`
	Isos    []float64 `json:"isos"`
	Phis    []float64 `json:"phis"`
	Thetas  []float64 `json:"thetas"`
	Entries []Entry   `json:"entries"`
}

// Cinema is the extract-writing analysis adaptor.
type Cinema struct {
	Comm     *mpi.Comm
	Spec     Spec
	Registry *metrics.Registry

	index     Index
	execIndex int
}

// New builds the adaptor; the spec is validated at first Execute.
func New(c *mpi.Comm, spec Spec) *Cinema {
	if spec.Stride <= 0 {
		spec.Stride = 1
	}
	if spec.Map == nil {
		spec.Map = colormap.Viridis()
	}
	return &Cinema{Comm: c, Spec: spec}
}

// Execute implements core.AnalysisAdaptor: for every (iso, phi, theta)
// combination, extract the isosurface, render from the orbit camera,
// composite, and store the image from rank 0.
func (cn *Cinema) Execute(d core.DataAdaptor) (bool, error) {
	if err := cn.Spec.Validate(); err != nil {
		return false, err
	}
	idx := cn.execIndex
	cn.execIndex++
	if idx%cn.Spec.Stride != 0 {
		return true, nil
	}
	step := d.TimeStep()
	mesh, err := core.FetchArray(d, grid.CellData, cn.Spec.ArrayName)
	if err != nil {
		return false, err
	}
	img, ok := mesh.(*grid.ImageData)
	if !ok {
		return false, fmt.Errorf("extracts: cinema supports structured data, got %v", mesh.Kind())
	}
	arr := img.Attributes(grid.CellData).Get(cn.Spec.ArrayName)
	if arr == nil {
		return false, fmt.Errorf("extracts: mesh lacks cell array %q", cn.Spec.ArrayName)
	}
	lo, hi := arr.Range(0)
	lo, hi, bounds, err := compositing.AgreeRange(cn.Comm, lo, hi, img.Bounds())
	if err != nil {
		return false, err
	}
	if err := render.CellToPointScalars(img, cn.Spec.ArrayName); err != nil {
		return false, err
	}
	cn.Registry = metrics.OrNew(cn.Registry, cn.Comm.Rank())
	t := compositing.Tail{
		Comm: cn.Comm, Registry: cn.Registry, Algorithm: compositing.BinarySwap,
		CompositeTimer: "cinema::composite", PNGTimer: "cinema::png",
		Prefix: "extracts", Background: color.RGBA{R: 10, G: 10, B: 14, A: 255},
		Dir: cn.Spec.OutputDir,
	}
	center, diag := render.BoxFrame(bounds)
	cm := cn.Spec.Map
	for _, isoN := range cn.Spec.IsoValues {
		iso := lo + isoN*(hi-lo)
		tris, err := render.Isosurface(img, cn.Spec.ArrayName, iso, "")
		if err != nil {
			return false, err
		}
		for _, phi := range cn.Spec.Phi {
			for _, theta := range cn.Spec.Theta {
				cam, err := orbitCamera(center, diag, phi, theta)
				if err != nil {
					return false, err
				}
				err = t.Image(step, cn.Spec.Width, cn.Spec.Height,
					func(fb *render.Framebuffer) error {
						render.RenderMesh(fb, cam, tris, func(s float64) color.RGBA {
							return cm.Pseudocolor(s, lo, hi)
						})
						return nil
					},
					func(final *render.Framebuffer) error {
						// The index records a view only once its bytes landed.
						name := fmt.Sprintf("s%05d_i%.3f_p%06.1f_t%05.1f.png", step, isoN, phi, theta)
						if err := t.Deliver(final, step, func() string { return name }); err != nil {
							return err
						}
						cn.index.Entries = append(cn.index.Entries, Entry{
							File: name, Step: step, Time: d.Time(), Iso: isoN, Phi: phi, Theta: theta,
						})
						return nil
					})
				if err != nil {
					return false, err
				}
			}
		}
	}
	return true, nil
}

// orbitCamera places the eye on a sphere around the domain.
func orbitCamera(center render.Vec3, diag, phiDeg, thetaDeg float64) (*render.Camera, error) {
	phi := phiDeg * math.Pi / 180
	theta := thetaDeg * math.Pi / 180
	dir := render.Vec3{
		math.Cos(theta) * math.Cos(phi),
		math.Sin(theta),
		math.Cos(theta) * math.Sin(phi),
	}
	eye := center.Add(dir.Scale(diag * 2))
	up := render.Vec3{0, 1, 0}
	if math.Abs(dir[1]) > 0.99 {
		up = render.Vec3{1, 0, 0}
	}
	return render.NewCamera(eye, center, up, diag*1.2)
}

// Finalize implements core.AnalysisAdaptor: rank 0 writes index.json.
func (cn *Cinema) Finalize() error {
	if cn.Comm != nil && cn.Comm.Rank() != 0 {
		return nil
	}
	if len(cn.index.Entries) == 0 {
		return nil
	}
	cn.index.Array = cn.Spec.ArrayName
	cn.index.Width = cn.Spec.Width
	cn.index.Height = cn.Spec.Height
	cn.index.Isos = cn.Spec.IsoValues
	cn.index.Phis = cn.Spec.Phi
	cn.index.Thetas = cn.Spec.Theta
	doc, err := json.MarshalIndent(&cn.index, "", "  ")
	if err != nil {
		return fmt.Errorf("extracts: %w", err)
	}
	return os.WriteFile(filepath.Join(cn.Spec.OutputDir, "index.json"), doc, 0o644)
}
