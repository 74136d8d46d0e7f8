package launch

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestPlanHandsBackEveryRank: a plan run in this process leaves each rank's
// instrumentation for the caller — the source built once under
// sim::initialize, one sim::step per step, the configured analyses' timers —
// and rank 0's stdout is the launcher's header and report.
func TestPlanHandsBackEveryRank(t *testing.T) {
	var stdout bytes.Buffer
	p, err := Load(Request{
		Config: []byte(`<sensei><analysis type="histogram" bins="4"/></sensei>`),
		NP:     3, Transport: "proc", Cells: 6, Steps: 4, Stdout: &stdout,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(p.Run(p.Drive)...); err != nil {
		t.Fatal(err)
	}
	for rank, r := range p.Ranks() {
		for name, want := range map[string]int{"sim::initialize": 1, "sensei::initialize": 1, "sim::step": 4, "sensei::execute": 4, "total": 1} {
			if got := r.Registry.Timer(name).Count(); got != want {
				t.Errorf("rank %d: %s ran %d times, want %d", rank, name, got, want)
			}
		}
		if r.Startup <= 0 || r.Memory.HighWater() < r.Startup {
			t.Errorf("rank %d: startup %d, high water %d", rank, r.Startup, r.Memory.HighWater())
		}
	}
	if !strings.HasPrefix(stdout.String(), "oscillator: 3 ranks, 6^3 cells, 4 steps, 1 analyses\nhistogram data: step=4 ") {
		t.Errorf("stdout:\n%s", stdout.String())
	}
}

// TestDecompositionRefusedAtTheFrontDoor: each simulation's CheckRanks is
// applied by Parse, so a world the grid cannot feed is refused before a
// rank exists, with the constructor's own words.
func TestDecompositionRefusedAtTheFrontDoor(t *testing.T) {
	for deck, want := range map[string]string{
		"":                    "oscillator: grid [2 2 2] too small for 16 ranks",
		"simulation phasta\n": "phasta: 1 x-cells cannot feed 16 ranks",
		"simulation leslie\n": "leslie: axis 0: 2 cells cannot feed 4 ranks",
		"simulation nyx\n":    "nyx: 2 z-cells cannot feed 16 ranks",
	} {
		var text []byte // no deck: the oscillator's built-in one
		if deck != "" {
			text = []byte(deck)
		}
		_, err := Parse(Request{Deck: text, NP: 16, Transport: "tcp", Cells: 2, Steps: 1})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("deck %q: err = %v, want %q", deck, err, want)
		}
		if _, err := Parse(Request{Deck: text, NP: 1, Transport: "tcp", Cells: 2, Steps: 1}); err != nil {
			t.Errorf("deck %q on one rank: %v", deck, err)
		}
	}
}
