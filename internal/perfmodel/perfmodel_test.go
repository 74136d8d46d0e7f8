package perfmodel

import (
	"testing"

	"gosensei/internal/compositing"
	"gosensei/internal/machine"
)

func coriModel() *Model { return New(machine.Cori(), DefaultCalibration()) }

func TestCalibratePositive(t *testing.T) {
	c := Calibrate()
	if c.OscNsPerCellOsc <= 0 || c.HistNsPerCell <= 0 || c.AutoNsPerCellDelay <= 0 ||
		c.PNGNsPerPixel <= 0 || c.PNGNsPerPixelRaw <= 0 || c.SliceNsPerPixel <= 0 {
		t.Fatalf("non-positive calibration: %+v", c)
	}
	// Compression must cost more than no compression.
	if c.PNGNsPerPixel <= c.PNGNsPerPixelRaw {
		t.Fatalf("png compressed (%v) should exceed raw (%v)", c.PNGNsPerPixel, c.PNGNsPerPixelRaw)
	}
}

func TestCollectivesScaleLogarithmically(t *testing.T) {
	m := coriModel()
	t1k := m.AllreduceTime(1024, 8)
	t1m := m.AllreduceTime(1<<20, 8)
	// 2^10 -> 2^20 ranks doubles the rounds, not 1024x.
	if t1m > 3*t1k {
		t.Fatalf("allreduce not logarithmic: %v vs %v", t1k, t1m)
	}
	if m.ReduceTime(1, 8) != 0 {
		t.Fatal("single rank collectives should be free")
	}
}

func TestOscillatorWeakScalingFlat(t *testing.T) {
	// Weak scaling: per-rank cost is independent of p — the paper's
	// "nearly perfect weak-scaling runtime performance" for the simulation.
	m := coriModel()
	a := m.OscillatorStepTime(64*64*64, 3)
	if a <= 0 {
		t.Fatal("non-positive step time")
	}
	// Doubling cells doubles time.
	b := m.OscillatorStepTime(2*64*64*64, 3)
	if b < 1.9*a || b > 2.1*a {
		t.Fatalf("not linear in cells: %v vs %v", a, b)
	}
}

func TestHistogramCheaperThanAutocorrelation(t *testing.T) {
	m := coriModel()
	cells := 100 * 100 * 100
	h := m.HistogramStepTime(812, cells, 10)
	a := m.AutocorrelationStepTime(cells, 10)
	if h >= a {
		t.Fatalf("histogram (%v) should be cheaper than window-10 autocorrelation (%v)", h, a)
	}
}

func TestImageSizeDrivesSliceCost(t *testing.T) {
	// Table 2's surprise: in situ cost tracks image size, not concurrency.
	m := New(machine.Mira(), DefaultCalibration())
	small := m.SliceRenderStepTime(compositing.BinarySwap, 262144, 800, 200, 0.05)
	big262k := m.SliceRenderStepTime(compositing.BinarySwap, 262144, 2900, 725, 0.05)
	big1m := m.SliceRenderStepTime(compositing.BinarySwap, 1048576, 2900, 725, 0.05)
	if big262k < 3*small {
		t.Fatalf("bigger image should dominate: %v vs %v", big262k, small)
	}
	// Same image at 4x the ranks changes little (the paper's IS2 vs IS3).
	if big1m > 1.5*big262k || big1m < big262k/1.5 {
		t.Fatalf("rank count should matter little: %v vs %v", big1m, big262k)
	}
}

func TestPNGCompressionAblation(t *testing.T) {
	// §4.2.1: skipping compression cut 4.03s to 0.518s (~8x) on the toy
	// problem. Require at least a 3x separation from the model.
	m := coriModel()
	with := m.PNGTime(2900*725, false)
	without := m.PNGTime(2900*725, true)
	if with < 3*without {
		t.Fatalf("compression ablation too weak: %v vs %v", with, without)
	}
}

func TestLibsimInitGrowsLinearly(t *testing.T) {
	// Fig. 5: Libsim's per-rank config check cost ~3.5s at 45K cores.
	m := coriModel()
	t45k := m.LibsimInitTime(45440)
	if t45k < 1 || t45k > 6 {
		t.Fatalf("libsim init at 45K = %vs, want ~3.5s scale", t45k)
	}
	if got := m.LibsimInitTime(812); got >= t45k/10 {
		t.Fatalf("init should grow ~linearly: %v vs %v", got, t45k)
	}
	// Catalyst init stays small.
	if ci := m.CatalystInitTime(45440); ci > 0.5 {
		t.Fatalf("catalyst init too big: %v", ci)
	}
}

func TestCompositeCosts(t *testing.T) {
	m := coriModel()
	px := 1920 * 1080
	bs := m.CompositeTime(compositing.BinarySwap, 45440, px)
	ds := m.CompositeTime(compositing.DirectSend, 45440, px)
	if bs <= 0 || ds <= 0 {
		t.Fatal("non-positive composite cost")
	}
	// Direct send ships full images each round; binary swap halves them.
	if ds <= bs {
		t.Fatalf("direct send (%v) should cost more than binary swap (%v)", ds, bs)
	}
	if m.CompositeTime(compositing.BinarySwap, 1, px) != 0 {
		t.Fatal("single rank compositing should be free")
	}
}

func TestFlexPathEndpointInitCoriVsTitan(t *testing.T) {
	// §4.1.4: Titan's reader init was an order of magnitude lower than Cori.
	cori := New(machine.Cori(), DefaultCalibration())
	titan := New(machine.Titan(), DefaultCalibration())
	c := cori.FlexPathEndpointInitTime(812)
	ti := titan.FlexPathEndpointInitTime(812)
	if c < 8*ti {
		t.Fatalf("cori init %v should be ~10x titan %v", c, ti)
	}
}

func TestADIOSTransferIncludesCopy(t *testing.T) {
	m := coriModel()
	small := m.ADIOSTransferTime(1 << 10)
	big := m.ADIOSTransferTime(64 << 20)
	if big <= small {
		t.Fatal("transfer should grow with payload")
	}
}

func TestAutocorrelationFinalizeGrowsWithRanks(t *testing.T) {
	m := coriModel()
	small := m.AutocorrelationFinalizeTime(812, 10, 3)
	large := m.AutocorrelationFinalizeTime(45440, 10, 3)
	if large <= small {
		t.Fatal("finalize gather should grow with rank count")
	}
}
