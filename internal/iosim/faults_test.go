package iosim

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"gosensei/internal/faultline"
)

// scriptedIO fails scripted write/read attempts, keyed by cumulative
// per-rank attempt counters — a miniature of internal/faultline's IOPlan,
// local to this package so the injection seam is tested where it lives.
type scriptedIO struct {
	mu         sync.Mutex
	writes     map[int]int
	reads      map[int]int
	failWrites func(rank, attempt int) faultline.FaultAction
	failReads  func(rank, attempt int) faultline.FaultAction
}

func (s *scriptedIO) BlockWrite(rank int) faultline.FaultAction {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.writes == nil {
		s.writes = map[int]int{}
	}
	s.writes[rank]++
	if s.failWrites == nil {
		return faultline.FaultAction{}
	}
	return s.failWrites(rank, s.writes[rank])
}

func (s *scriptedIO) BlockRead(rank int) faultline.FaultAction {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.reads == nil {
		s.reads = map[int]int{}
	}
	s.reads[rank]++
	if s.failReads == nil {
		return faultline.FaultAction{}
	}
	return s.failReads(rank, s.reads[rank])
}

func TestWriteBlockFileRetriesInjectedENOSPC(t *testing.T) {
	dir := t.TempDir()
	inj := &scriptedIO{failWrites: func(rank, attempt int) faultline.FaultAction {
		// Attempts 1 and 2 hit a full OST; attempt 3 lands.
		return faultline.FaultAction{ENOSPC: attempt <= 2}
	}}

	img := buildBlock()
	size, err := WriteBlockFile(dir, 0, img, 3, 0.5, inj)
	if err != nil {
		t.Fatalf("write with 2 injected failures must succeed: %v", err)
	}
	if size <= 0 {
		t.Fatalf("size = %d", size)
	}
	if inj.writes[0] != 3 {
		t.Fatalf("attempts = %d, want 3", inj.writes[0])
	}
	// The landed block must be byte-for-byte readable.
	got, step, tm, err := ReadBlockFile(dir, 3, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if step != 3 || tm != 0.5 || got.Extent != img.Extent {
		t.Fatalf("round trip lost data: step=%d time=%v", step, tm)
	}
}

func TestWriteBlockFileGivesUpAfterBudget(t *testing.T) {
	dir := t.TempDir()
	inj := &scriptedIO{failWrites: func(rank, attempt int) faultline.FaultAction {
		return faultline.FaultAction{ENOSPC: true}
	}}

	_, err := WriteBlockFile(dir, 1, buildBlock(), 0, 0, inj)
	if err == nil || !errors.Is(err, ErrNoSpace) {
		t.Fatalf("want ErrNoSpace after exhausted budget, got %v", err)
	}
	if !strings.Contains(err.Error(), "after 4 attempts") {
		t.Fatalf("error must name the attempt budget: %v", err)
	}
	if inj.writes[1] != maxBlockAttempts {
		t.Fatalf("attempts = %d, want %d", inj.writes[1], maxBlockAttempts)
	}
}

func TestReadBlockFileRetriesInjectedShortRead(t *testing.T) {
	dir := t.TempDir()
	img := buildBlock()
	if _, err := WriteBlockFile(dir, 2, img, 1, 0.25, nil); err != nil {
		t.Fatal(err)
	}
	inj := &scriptedIO{failReads: func(rank, attempt int) faultline.FaultAction {
		return faultline.FaultAction{ShortRead: attempt == 1}
	}}

	got, step, tm, err := ReadBlockFile(dir, 1, 2, inj)
	if err != nil {
		t.Fatalf("read with 1 injected short read must succeed: %v", err)
	}
	if step != 1 || tm != 0.25 || got.Extent != img.Extent {
		t.Fatalf("round trip lost data: step=%d time=%v", step, tm)
	}
	if inj.reads[2] != 2 {
		t.Fatalf("attempts = %d, want 2", inj.reads[2])
	}
}

func TestWriteBlockFileFsyncDelay(t *testing.T) {
	dir := t.TempDir()
	inj := &scriptedIO{failWrites: func(rank, attempt int) faultline.FaultAction {
		return faultline.FaultAction{Delay: 20 * time.Millisecond}
	}}

	start := time.Now()
	if _, err := WriteBlockFile(dir, 0, buildBlock(), 0, 0, inj); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 20*time.Millisecond {
		t.Fatalf("fsync spike not applied: %v", el)
	}
}

// TestNoInjectorMeansNoFaultCalls: no injector, and the io plan of a run
// that schedules no io faults (a nil *faultline.IOPlan), inject nothing.
func TestNoInjectorMeansNoFaultCalls(t *testing.T) {
	for _, faults := range []FaultInjector{nil, (*faultline.IOPlan)(nil)} {
		dir := t.TempDir()
		if _, err := WriteBlockFile(dir, 0, buildBlock(), 0, 0, faults); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := ReadBlockFile(dir, 0, 0, faults); err != nil {
			t.Fatal(err)
		}
	}
}
