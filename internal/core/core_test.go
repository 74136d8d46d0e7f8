package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"gosensei/internal/array"
	"gosensei/internal/grid"
	"gosensei/internal/metrics"
)

// fakeAdaptor is a minimal DataAdaptor over a 2x2x2 image grid.
type fakeAdaptor struct {
	BaseDataAdaptor
	data     []float64
	released int
	meshErr  error
	names    []string // offered by ArrayNames; nil means just "data"
	namesErr error
}

func newFakeAdaptor() *fakeAdaptor {
	return &fakeAdaptor{data: []float64{1, 2, 3, 4, 5, 6, 7, 8}}
}

func (f *fakeAdaptor) Mesh(structureOnly bool) (grid.Dataset, error) {
	if f.meshErr != nil {
		return nil, f.meshErr
	}
	return grid.NewImageData(grid.NewExtent3D(2, 2, 2)), nil
}

func (f *fakeAdaptor) AddArray(mesh grid.Dataset, assoc grid.Association, name string) error {
	if name != "data" {
		return fmt.Errorf("no array %q", name)
	}
	mesh.Attributes(assoc).Add(array.WrapAOS(name, 1, f.data))
	return nil
}

func (f *fakeAdaptor) ArrayNames(assoc grid.Association) ([]string, error) {
	if f.names != nil || f.namesErr != nil {
		return f.names, f.namesErr
	}
	return []string{"data"}, nil
}

func (f *fakeAdaptor) ReleaseData() error { f.released++; return nil }

// recordingAnalysis records Execute/Finalize calls.
type recordingAnalysis struct {
	executed  []int
	finalized bool
	stopAt    int
	execErr   error
}

func (r *recordingAnalysis) Execute(d DataAdaptor) (bool, error) {
	r.executed = append(r.executed, d.TimeStep())
	if r.execErr != nil {
		return true, r.execErr
	}
	if r.stopAt > 0 && d.TimeStep() >= r.stopAt {
		return false, nil
	}
	return true, nil
}

func (r *recordingAnalysis) Finalize() error { r.finalized = true; return nil }

func TestBridgeExecutesAllAnalyses(t *testing.T) {
	b := NewBridge(nil, nil, nil)
	a1 := &recordingAnalysis{}
	a2 := &recordingAnalysis{}
	b.AddAnalysis("one", a1)
	b.AddAnalysis("two", a2)
	d := newFakeAdaptor()
	for step := 0; step < 3; step++ {
		d.SetStep(step, float64(step)*0.1)
		cont, err := b.Execute(d)
		if err != nil || !cont {
			t.Fatalf("step %d: cont=%v err=%v", step, cont, err)
		}
	}
	if len(a1.executed) != 3 || len(a2.executed) != 3 {
		t.Fatalf("executions: %v %v", a1.executed, a2.executed)
	}
	if d.released != 3 {
		t.Fatalf("ReleaseData called %d times", d.released)
	}
	if b.AnalysisCount() != 2 {
		t.Fatalf("count=%d", b.AnalysisCount())
	}
}

func TestBridgeTimingEvents(t *testing.T) {
	b := NewBridge(nil, nil, nil)
	b.AddAnalysis("hist", &recordingAnalysis{})
	d := newFakeAdaptor()
	d.SetStep(5, 0.5)
	if _, err := b.Execute(d); err != nil {
		t.Fatal(err)
	}
	evs := b.Registry.EventsNamed("analysis::hist")
	if len(evs) != 1 || evs[0].Step != 5 {
		t.Fatalf("events=%v", evs)
	}
	if len(b.Registry.EventsNamed("sensei::execute-step")) != 1 {
		t.Fatal("missing execute-step event")
	}
}

func TestBridgeStopRequest(t *testing.T) {
	b := NewBridge(nil, nil, nil)
	b.AddAnalysis("stopper", &recordingAnalysis{stopAt: 2})
	d := newFakeAdaptor()
	d.SetStep(2, 0.2)
	cont, err := b.Execute(d)
	if err != nil {
		t.Fatal(err)
	}
	if cont || !b.stopped {
		t.Fatal("stop not propagated")
	}
}

func TestBridgeErrorWrapped(t *testing.T) {
	b := NewBridge(nil, nil, nil)
	sentinel := errors.New("kaput")
	b.AddAnalysis("bad", &recordingAnalysis{execErr: sentinel})
	ok := &recordingAnalysis{}
	b.AddAnalysis("good", ok)
	d := newFakeAdaptor()
	d.SetStep(1, 0.1)
	_, err := b.Execute(d)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err=%v", err)
	}
	// Later analyses still ran.
	if len(ok.executed) != 1 {
		t.Fatal("subsequent analysis skipped after error")
	}
}

func TestBridgeFinalize(t *testing.T) {
	b := NewBridge(nil, nil, nil)
	a := &recordingAnalysis{}
	b.AddAnalysis("a", a)
	if err := b.Finalize(); err != nil {
		t.Fatal(err)
	}
	if !a.finalized {
		t.Fatal("finalize not called")
	}
	if b.Registry.Timer("sensei::finalize").Count() != 1 {
		t.Fatal("finalize not timed")
	}
}

func TestFetchArray(t *testing.T) {
	d := newFakeAdaptor()
	mesh, err := FetchArray(d, grid.CellData, "data")
	if err != nil {
		t.Fatal(err)
	}
	a := mesh.Attributes(grid.CellData).Get("data")
	if a == nil || a.Tuples() != 8 {
		t.Fatal("array not attached")
	}
	if _, err := FetchArray(d, grid.CellData, "missing"); err == nil {
		t.Fatal("expected error for missing array")
	}
	d.meshErr = errors.New("no mesh")
	if _, err := FetchArray(d, grid.CellData, "data"); err == nil {
		t.Fatal("expected mesh error")
	}
}

func TestFetchAll(t *testing.T) {
	d := newFakeAdaptor()
	mesh, err := FetchAll(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, assoc := range []grid.Association{grid.PointData, grid.CellData} {
		if a := mesh.Attributes(assoc).Get("data"); a == nil || a.Tuples() != 8 {
			t.Fatalf("%s array not attached", assoc)
		}
	}
	d.meshErr = errors.New("no mesh")
	if _, err := FetchAll(d); !errors.Is(err, d.meshErr) {
		t.Fatalf("mesh error lost: %v", err)
	}
	// The adaptor offers "data" and "ghost" but can only attach "data": the
	// error names the array and its association.
	d = newFakeAdaptor()
	d.names = []string{"data", "ghost"}
	if _, err := FetchAll(d); err == nil || !strings.Contains(err.Error(), `point array "ghost"`) {
		t.Fatalf("AddArray error does not name the array: %v", err)
	}
	d.namesErr = errors.New("catalog offline")
	if _, err := FetchAll(d); !errors.Is(err, d.namesErr) || !strings.Contains(err.Error(), "point arrays") {
		t.Fatalf("ArrayNames error lost or unnamed: %v", err)
	}
}

func TestAttrsParsing(t *testing.T) {
	a := &Attrs{vals: map[string]string{"bins": "32", "width": "2.5", "enabled": "0", "name": "x", "mode": "analysis"}}
	if v := a.String("name", "d"); v != "x" {
		t.Fatalf("string=%q", v)
	}
	if v := a.String("absent", "d"); v != "d" {
		t.Fatalf("default=%q", v)
	}
	if n := a.Int("bins", 1, 1); n != 32 {
		t.Fatalf("int=%d", n)
	}
	if n := a.Int("absent", 0, 1); n != 0 {
		t.Fatalf("int default=%d: an absent attribute is not held to the minimum", n)
	}
	if f := a.Float("width", 0); f != 2.5 {
		t.Fatalf("float=%v", f)
	}
	if a.Bool("enabled", true) {
		t.Fatal("enabled=0 parsed as true")
	}
	if !a.Bool("absent", true) {
		t.Fatal("bool default wrong")
	}
	if i := a.Choice("mode", "io", "io", "analysis"); i != 1 {
		t.Fatalf("choice=%d", i)
	}
	if i := a.Choice("absent", "z", "x", "y", "z"); i != 2 {
		t.Fatalf("choice default=%d", i)
	}
	if a.Association() != grid.CellData {
		t.Fatal("association default is cell")
	}
	if err := a.verdict(nil); err != nil {
		t.Fatalf("everything was read and valid: %v", err)
	}
}

// TestAttrsStrict: every way a value can be wrong is reported with the
// attribute's name, the reader still returns its (valid) default, the first
// failure sticks, and an attribute nobody read is a failure of its own.
func TestAttrsStrict(t *testing.T) {
	for _, tc := range []struct {
		name, val string
		read      func(a *Attrs) any
		def       any
	}{
		{"bins", "many", func(a *Attrs) any { return a.Int("bins", 10, 1) }, 10},
		{"bins", "0", func(a *Attrs) any { return a.Int("bins", 10, 1) }, 10},
		{"bins", "1.5", func(a *Attrs) any { return a.Int("bins", 10, 1) }, 10},
		{"coord", "left", func(a *Attrs) any { return a.Float("coord", 0.5) }, 0.5},
		{"on", "maybe", func(a *Attrs) any { return a.Bool("on", true) }, true},
		{"axis", "w", func(a *Attrs) any { return a.Choice("axis", "z", "x", "y", "z") }, 2},
		{"association", "node", func(a *Attrs) any { return a.Association() }, grid.CellData},
	} {
		a := &Attrs{vals: map[string]string{tc.name: tc.val}}
		if got := tc.read(a); got != tc.def {
			t.Errorf("%s=%q: reader returned %v, want the default %v", tc.name, tc.val, got, tc.def)
		}
		err := a.verdict(nil)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.name)) {
			t.Errorf("%s=%q: err=%v, want one naming the attribute", tc.name, tc.val, err)
		}
	}
	a := &Attrs{vals: map[string]string{"bins": "x", "window": "y", "image-widht": "64"}}
	a.Int("bins", 10, 1)
	a.Int("window", 10, 1)
	if err := a.verdict(errors.New("factory")); err == nil || !strings.Contains(err.Error(), `"bins"`) {
		t.Errorf("the first rejected value must win over later ones and the factory: %v", err)
	}
	a = &Attrs{vals: map[string]string{"bins": "8", "image-widht": "64"}}
	a.Int("bins", 10, 1)
	if err := a.verdict(nil); err == nil || !strings.Contains(err.Error(), `"image-widht"`) {
		t.Errorf("unread attribute not reported: %v", err)
	}
	sentinel := errors.New("factory gave up early")
	if err := a.verdict(sentinel); err != sentinel {
		t.Errorf("a factory that gave up early may not have read everything: %v", err)
	}
}

// TestConfigureFromXMLReportsAttributes: a bad or unknown attribute is an
// error naming the element, its type and the attribute; type, name and
// enabled belong to the dispatcher and count as read.
func TestConfigureFromXMLReportsAttributes(t *testing.T) {
	RegisterFactory("test-strict", func(attrs *Attrs, b *Bridge) (AnalysisAdaptor, error) {
		attrs.Int("bins", 10, 1)
		return &recordingAnalysis{}, nil
	})
	for doc, want := range map[string]string{
		`<analysis type="test-strict" name="n" enabled="1" bins="4"/>`:                   "",
		`<analysis type="test-strict" bins="4"/><analysis type="test-strict" bins="0"/>`: `element 1 (test-strict): attribute "bins"`,
		`<analysis type="test-strict" bnis="4"/>`:                                        `element 0 (test-strict): attribute "bnis"`,
		`<analysis type="test-strict" enabled="perhaps"/>`:                               `element 0 (test-strict): attribute "enabled"`,
		`<analysis type="test-strict" enabled="0" bins="0" whatever="x"/>`:               "",
	} {
		err := ConfigureFromXML(NewBridge(nil, nil, nil), []byte("<sensei>"+doc+"</sensei>"))
		switch {
		case want == "" && err != nil:
			t.Errorf("%s: %v", doc, err)
		case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
			t.Errorf("%s: err=%v, want %q", doc, err, want)
		}
	}
}

func TestConfigureFromXML(t *testing.T) {
	RegisterFactory("test-recording", func(attrs *Attrs, b *Bridge) (AnalysisAdaptor, error) {
		if attrs.String("array", "") != "data" {
			return nil, fmt.Errorf("bad attrs")
		}
		return &recordingAnalysis{}, nil
	})
	b := NewBridge(nil, nil, nil)
	doc := []byte(`<sensei>
		<analysis type="test-recording" array="data" name="first"/>
		<analysis type="test-recording" array="data" enabled="0"/>
	</sensei>`)
	if err := ConfigureFromXML(b, doc); err != nil {
		t.Fatal(err)
	}
	if b.AnalysisCount() != 1 {
		t.Fatalf("count=%d (disabled analysis not skipped?)", b.AnalysisCount())
	}
}

func TestConfigureFromXMLUnknownType(t *testing.T) {
	b := NewBridge(nil, nil, nil)
	err := ConfigureFromXML(b, []byte(`<sensei><analysis type="nope"/></sensei>`))
	if err == nil || !strings.Contains(err.Error(), "unknown analysis type") {
		t.Fatalf("err=%v", err)
	}
}

func TestConfigureFromXMLMissingType(t *testing.T) {
	b := NewBridge(nil, nil, nil)
	if err := ConfigureFromXML(b, []byte(`<sensei><analysis array="d"/></sensei>`)); err == nil {
		t.Fatal("expected error")
	}
}

func TestConfigureFromXMLBadDocument(t *testing.T) {
	b := NewBridge(nil, nil, nil)
	if err := ConfigureFromXML(b, []byte(`<not xml`)); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestRegisterFactoryDuplicatePanics(t *testing.T) {
	RegisterFactory("test-dup", func(*Attrs, *Bridge) (AnalysisAdaptor, error) { return nil, nil })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RegisterFactory("test-dup", func(*Attrs, *Bridge) (AnalysisAdaptor, error) { return nil, nil })
}

func TestFactoryTypesSorted(t *testing.T) {
	RegisterFactory("test-zzz", func(*Attrs, *Bridge) (AnalysisAdaptor, error) { return nil, nil })
	RegisterFactory("test-aaa", func(*Attrs, *Bridge) (AnalysisAdaptor, error) { return nil, nil })
	types := FactoryTypes()
	for i := 1; i < len(types); i++ {
		if types[i-1] >= types[i] {
			t.Fatalf("not sorted: %v", types)
		}
	}
}

func TestNewBridgeDefaults(t *testing.T) {
	b := NewBridge(nil, nil, nil)
	if b.Registry == nil || b.Memory == nil {
		t.Fatal("defaults not created")
	}
	reg := metrics.NewRegistry(3)
	mem := metrics.NewTracker()
	b2 := NewBridge(nil, reg, mem)
	if b2.Registry != reg || b2.Memory != mem {
		t.Fatal("provided sinks not used")
	}
}
