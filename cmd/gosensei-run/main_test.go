package main

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"gosensei/internal/launch"
)

// dirNames lists a directory's entries by name.
func dirNames(t testing.TB, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// FuzzLoadDeck holds the launcher's front door to its contract over every
// deck grammar — the four simulations', the endpoint's and the replay's —
// with an optional configuration, on proc or tcp, with or without an
// explicit -steps and -cells: load + Check yield a run plan or an error,
// never a panic, and write nothing, bind nothing and leave no goroutine
// behind. The committed corpus under testdata/fuzz holds every deck
// refusal TestCmdRefusals pins.
func FuzzLoadDeck(f *testing.F) {
	for _, deck := range []string{
		"", "simulation oscillator\n", "simulation phasta\nsteer 3 1.6 1.5\n", "simulation leslie\n", "simulation nyx\nlive 127.0.0.1:0\n",
		"simulation endpoint\nlisten 127.0.0.1:0\nqueue-depth 2\ncodec delta,raw\nextract slice:2:4.5:data\n",
		"simulation replay\ndir testdata\n",
	} {
		f.Add(deck, `<sensei><analysis type="histogram" bins="4"/></sensei>`, false, false)
	}
	cwd := dirNames(f, ".")
	f.Fuzz(func(t *testing.T, deck, config string, tcp, explicit bool) {
		work := t.TempDir()
		deckPath, configPath := filepath.Join(work, "sim.deck"), ""
		if err := os.WriteFile(deckPath, []byte(deck), 0o644); err != nil {
			t.Fatal(err)
		}
		if config != "" {
			configPath = filepath.Join(work, "sensei.xml")
			if err := os.WriteFile(configPath, []byte(config), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		req := launch.Request{NP: 2, Transport: "proc", Cells: 8, Steps: 3, StepsSet: explicit, CellsSet: explicit}
		if tcp {
			req.Transport = "tcp"
		}
		before := runtime.NumGoroutine()
		p, err := load(req, deckPath, configPath)
		if err == nil {
			err = p.Check()
		}
		want := []string{"sim.deck"}
		if configPath != "" {
			want = []string{"sensei.xml", "sim.deck"}
		}
		if got := dirNames(t, work); !slices.Equal(got, want) {
			t.Fatalf("deck %q: the front door wrote %v", deck, got)
		}
		if got := dirNames(t, "."); !slices.Equal(got, cwd) {
			t.Fatalf("deck %q: the front door wrote to the working directory: %v", deck, got)
		}
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("deck %q: %d goroutines left running (a listener or a rank)", deck, runtime.NumGoroutine()-before)
			}
		}
	})
}
