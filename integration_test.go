package gosensei

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	_ "gosensei/internal/adios"
	_ "gosensei/internal/analysis"
	_ "gosensei/internal/catalyst"
	"gosensei/internal/core"
	_ "gosensei/internal/extracts"
	_ "gosensei/internal/glean"
	_ "gosensei/internal/iosim"
	_ "gosensei/internal/libsim"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
	"gosensei/internal/oscillator"
)

// TestEverythingAtOnce is the full "write once, use everywhere" integration:
// the miniapp instrumented once, then coupled — in a single run — to every
// registered analysis and infrastructure via one XML document, the way
// configs/all-infrastructures.xml wires a production run.
func TestEverythingAtOnce(t *testing.T) {
	work := t.TempDir()
	cfgXML := `<sensei>
	  <analysis type="histogram"       array="data" bins="10"/>
	  <analysis type="autocorrelation" array="data" window="5" k-max="3"/>
	  <analysis type="index"           array="data" bins="16"/>
	  <analysis type="compress"        array="data" bits="10"/>
	  <analysis type="catalyst" array="data" image-width="48" image-height="32"
	            slice-axis="z" slice-coord="8" output-dir="` + work + `/frames"/>
	  <analysis type="libsim"   array="data" image-width="40" image-height="40" stride="2"/>
	  <analysis type="adios"    transport="bp-file" dir="` + work + `/bp"/>
	  <analysis type="glean"    ranks-per-node="2" mode="analysis" array="data" bins="8"/>
	  <analysis type="cinema"   array="data" phi-count="2" theta-count="1"
	            image-width="32" image-height="32" output-dir="` + work + `/cinema"/>
	  <analysis type="vtk-writer" dir="` + work + `/blocks" stride="2"/>
	</sensei>`

	const (
		ranks = 4
		cells = 16
		steps = 4
	)
	simCfg := oscillator.Config{
		GlobalCells: [3]int{cells, cells, cells},
		DT:          0.1,
		Steps:       steps,
		Oscillators: oscillator.DefaultDeck(cells),
	}
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		reg := metrics.NewRegistry(c.Rank())
		mem := metrics.NewTracker()
		sim, err := oscillator.NewSim(c, simCfg, mem)
		if err != nil {
			return err
		}
		bridge := core.NewBridge(c, reg, mem)
		if err := core.ConfigureFromXML(bridge, []byte(cfgXML)); err != nil {
			return err
		}
		if bridge.AnalysisCount() != 10 {
			t.Errorf("expected 10 analyses, got %d", bridge.AnalysisCount())
		}
		d := oscillator.NewDataAdaptor(sim)
		for i := 0; i < simCfg.Steps; i++ {
			if err := sim.Step(); err != nil {
				return err
			}
			d.Update()
			if _, err := bridge.Execute(d); err != nil {
				return err
			}
		}
		return bridge.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every side effect landed.
	checkCount := func(pattern string, want int) {
		t.Helper()
		files, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != want {
			t.Errorf("%s: %d files, want %d", pattern, len(files), want)
		}
	}
	checkCount(filepath.Join(work, "frames", "slice_*.png"), steps)
	// Libsim stride 2 over executions 0..3 -> 2 images.
	// (Catalyst stride is 1: every step.)
	checkCount(filepath.Join(work, "bp", "*.bp"), steps*ranks)
	// Cinema: steps x 1 iso x 2 phi x 1 theta images + index.json.
	checkCount(filepath.Join(work, "cinema", "*.png"), steps*2)
	if _, err := os.Stat(filepath.Join(work, "cinema", "index.json")); err != nil {
		t.Errorf("cinema index missing: %v", err)
	}
	// vtk-writer stride 2 -> 2 steps x ranks block files.
	checkCount(filepath.Join(work, "blocks", "*.blk"), 2*ranks)
}

// configure builds a bridge from one config document on every rank of a
// small world (glean splits communicators while it is built) and returns
// rank 0's error.
func configure(t *testing.T, doc string) error {
	t.Helper()
	var cfgErr error
	err := mpi.Run(2, func(c *mpi.Comm) error {
		err := core.ConfigureFromXML(core.NewBridge(c, nil, nil), []byte(doc))
		if c.Rank() == 0 {
			cfgErr = err
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", doc, err) // a panic in a factory lands here
	}
	return cfgErr
}

// TestBadConfigsAreErrors: whatever a config file can get wrong about an
// attribute — a value that does not parse, a size no constructor accepts, a
// word that is not one of the choices, a misspelt name — every registered
// analysis type answers with a one-line error naming the element and the
// attribute: never a panic out of a constructor, never a default applied in
// silence.
func TestBadConfigsAreErrors(t *testing.T) {
	type row struct{ attrs, names string } // the attributes of one element; what the error must name
	bad := map[string][]row{
		"histogram": {{`bins="0"`, "bins"}, {`bins="ten"`, "bins"}, {`association="node"`, "association"}, {`bnis="4"`, "bnis"}},
		"index":     {{`bins="0"`, "bins"}, {`bins="-3"`, "bins"}, {`association="vertex"`, "association"}, {`arrray="data"`, "arrray"}},
		"autocorrelation": {{`window="0"`, "window"}, {`k-max="0"`, "k-max"}, {`window="1e1"`, "window"},
			{`association="edge"`, "association"}, {`kmax="2"`, "kmax"}},
		"compress": {{`bits="0"`, "bits"}, {`bits="33"`, "bits"}, {`bits="a few"`, "bits"},
			{`association="face"`, "association"}, {`bit="4"`, `"bit"`}},
		"catalyst": {{`image-width="0"`, "image-width"}, {`image-height="-1"`, "image-height"}, {`image-widht="64"`, "image-widht"},
			{`threads="many"`, "threads"}, {`threads="-1"`, "threads"}, {`stride="two"`, "stride"}, {`stride="0"`, "stride"},
			{`slice-axis="w"`, "slice-axis"}, {`slice-coord="middle"`, "slice-coord"}, {`association="node"`, "association"},
			{`skip-png-compression="maybe"`, "skip-png-compression"}, {`parallel-png="2"`, "parallel-png"}},
		"libsim": {{`image-width="wide"`, "image-width"}, {`image-width="0"`, "image-width"}, {`image-height="0"`, "image-height"},
			{`threads="x"`, "threads"}, {`stride="0"`, "stride"}, {`stride="five"`, "stride"},
			{`parallel-png="si"`, "parallel-png"}, {`sesion="viz.session"`, "sesion"}},
		"cinema": {{`image-width="0"`, "image-width"}, {`image-height="x"`, "image-height"}, {`phi-count="0"`, "phi-count"},
			{`theta-count="-1"`, "theta-count"}, {`iso="half"`, "iso"}, {`phi="4"`, `"phi"`}},
		"glean": {{`mode="fast"`, "mode"}, {`ranks-per-node="0"`, "ranks-per-node"}, {`ranks-per-node="all"`, "ranks-per-node"},
			{`bins="0"`, "bins"}, {`output="x"`, `"output"`}},
		"adios": {{`transport="pigeon"`, "transport"}, {`dri="bp-out"`, "dri"},
			{`transport="flexpath"`, "endpoint"}, {`transport="flexpath" endpoint="127.0.0.1:9" depth="0"`, "depth"},
			{`transport="flexpath" endpoint="127.0.0.1:9" retry-window="-1"`, "retry-window"},
			{`transport="flexpath" endpoint="127.0.0.1:9" dir="bp-out"`, `"dir"`}},
		"histogram-replay": {{`dir="blocks" bins="0"`, "bins"}, {`bins="4"`, "dir"}, {`dir="blocks" association="node"`, "association"},
			{`dir="blocks" bnis="4"`, "bnis"}},
		// A routed element's routes are nested elements (core's
		// TestRoutedFromXML holds those to the same rule); alone it has none.
		"routed": {{`budget-step="fast"`, "budget-step"}, {`budget-wire="-1"`, "budget-wire"}, {`budget-storage="1e6"`, "budget-storage"},
			{``, "no nested analysis elements"}},
		"vtk-writer": {{`dir="out" stride="0"`, "stride"}, {`dir="out" stride="x"`, "stride"},
			{`dir="out" strid="2"`, "strid"}, {`stride="2"`, "dir"}},
	}
	for _, typ := range core.FactoryTypes() {
		if len(bad[typ]) == 0 {
			t.Errorf("no bad-attribute rows for registered analysis type %q", typ)
		}
	}
	for typ, rows := range bad {
		for _, r := range rows {
			err := configure(t, `<sensei><analysis type="histogram"/><analysis type="`+typ+`" `+r.attrs+`/></sensei>`)
			if err == nil {
				t.Errorf("%s %s: accepted", typ, r.attrs)
				continue
			}
			msg := err.Error()
			if !strings.Contains(msg, "element 1 ("+typ+")") || !strings.Contains(msg, r.names) || strings.Contains(msg, "\n") {
				t.Errorf("%s %s: error %q should be one line naming element 1, its type and %s", typ, r.attrs, msg, r.names)
			}
		}
	}
}

// TestShippedConfigsLoad: strict attribute reading must not reject anything
// the repository itself ships — configs/, and each example's sensei.xml from
// the example's own directory, where its session= resolves.
func TestShippedConfigsLoad(t *testing.T) {
	configs, err := filepath.Glob("configs/*.xml")
	if err != nil || len(configs) == 0 {
		t.Fatalf("no configs found: %v", err)
	}
	examples, err := filepath.Glob("examples/*/sensei.xml")
	if err != nil || len(examples) != 4 {
		t.Fatalf("want the 4 example configs, found %v: %v", examples, err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
	for _, f := range append(configs, examples...) {
		doc, err := os.ReadFile(filepath.Join(wd, f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Chdir(filepath.Join(wd, filepath.Dir(f))); err != nil {
			t.Fatal(err)
		}
		if err := configure(t, string(doc)); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}
