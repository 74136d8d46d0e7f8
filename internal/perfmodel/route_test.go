package perfmodel

import (
	"testing"

	"gosensei/internal/machine"
	"gosensei/internal/route"
)

// TestCalibrateGuardedUnderGoTest pins the tier-1 determinism contract:
// inside a `go test` binary Calibrate must return DefaultCalibration without
// measuring anything, and the measurement counter must stay zero no matter
// how many times it is called.
func TestCalibrateGuardedUnderGoTest(t *testing.T) {
	before := calibrations.Load()
	for i := 0; i < 3; i++ {
		if got, want := Calibrate(), DefaultCalibration(); got != want {
			t.Fatalf("Calibrate under go test = %+v, want DefaultCalibration %+v", got, want)
		}
	}
	if got := calibrations.Load(); got != before || got != 0 {
		t.Fatalf("calibrations = %d, want 0 (calibration ran under go test)", got)
	}
}

func TestRoutePriorShape(t *testing.T) {
	m := New(machine.Cori(), DefaultCalibration())
	const p, cells, bins = 16, 64 * 64 * 64, 32
	prior := RoutePrior(m, p, cells, bins)

	total := int64(p) * int64(cells) * 8
	is := prior[route.InSitu]
	it := prior[route.InTransit]
	ph := prior[route.PostHoc]

	if is.Seconds <= 0 || it.Seconds <= 0 || ph.Seconds <= 0 {
		t.Fatalf("non-positive prior seconds: %+v", prior)
	}
	if is.WireBytes != 0 || is.StorageBytes != 0 {
		t.Fatalf("in situ prior must move no bytes: %+v", is)
	}
	if it.WireBytes != total || it.StorageBytes != 0 {
		t.Fatalf("in transit prior wire bytes = %d, want %d: %+v", it.WireBytes, total, it)
	}
	if ph.StorageBytes != total || ph.WireBytes != 0 {
		t.Fatalf("post hoc prior storage bytes = %d, want %d: %+v", ph.StorageBytes, total, ph)
	}
	// The prior is deterministic: two computations are identical.
	if prior != RoutePrior(m, p, cells, bins) {
		t.Fatal("RoutePrior not deterministic")
	}
}
