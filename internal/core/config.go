package core

import (
	"encoding/xml"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"gosensei/internal/grid"
)

// Factory builds an analysis adaptor from XML attributes for the bridge it
// will run under, reading from the bridge what the run provides: the
// communicator, the rank's instrumentation sinks, the live frame sink and
// the fault schedule. Factories are registered by the packages implementing
// analyses and infrastructures (histogram, autocorrelation, catalyst,
// libsim, adios, glean) from their init functions, mirroring how SENSEI's
// ConfigurableAnalysis dispatches on the "type" attribute.
type Factory func(attrs *Attrs, b *Bridge) (AnalysisAdaptor, error)

var (
	factoryMu sync.RWMutex
	factories = map[string]Factory{}
)

// RegisterFactory makes a factory available under the given analysis type.
// Registering a duplicate type panics: it is always a programming error.
func RegisterFactory(typ string, f Factory) {
	factoryMu.Lock()
	defer factoryMu.Unlock()
	if _, dup := factories[typ]; dup {
		panic(fmt.Sprintf("core: duplicate analysis factory %q", typ))
	}
	factories[typ] = f
}

// FactoryTypes lists the registered analysis types, sorted.
func FactoryTypes() []string {
	factoryMu.RLock()
	defer factoryMu.RUnlock()
	out := make([]string, 0, len(factories))
	for t := range factories {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

func lookupFactory(typ string) (Factory, bool) {
	factoryMu.RLock()
	defer factoryMu.RUnlock()
	f, ok := factories[typ]
	return f, ok
}

// Attrs reads one analysis element's XML attributes, strictly: a config file
// is input from outside the program, so a value that does not parse, a word
// that is not one of the choices and an attribute nobody asked for are all
// errors, never a default applied in silence. The first failure sticks and
// the reader that hit it returns its default — always a valid value — so a
// factory reads everything it wants, builds from it without checking each
// read, and ConfigureFromXML reports the failure in its place.
type Attrs struct {
	vals map[string]string
	read map[string]bool
	err  error
	// nested are the analysis elements inside this one; a factory that does
	// not take them (Nested) has been handed children it has no use for.
	nested      []xmlAnalysis
	nestedTaken bool
}

func (a *Attrs) lookup(key string) (string, bool) {
	if a.read == nil {
		a.read = map[string]bool{}
	}
	a.read[key] = true
	v, ok := a.vals[key]
	return v, ok
}

func (a *Attrs) fail(key, format string, args ...any) {
	if a.err == nil {
		a.err = fmt.Errorf("attribute %q: %s", key, fmt.Sprintf(format, args...))
	}
}

// verdict folds what the readers saw into the factory's own error. A value a
// reader rejected explains whatever the factory made of the default and
// wins; an attribute no reader asked for (a misspelt name, most likely) is
// an error only once the factory got through, since one that gave up early
// may not have come to it.
func (a *Attrs) verdict(built error) error {
	if a.err != nil {
		return a.err
	}
	if built != nil {
		return built
	}
	var unread []string
	for k := range a.vals {
		if !a.read[k] {
			unread = append(unread, k)
		}
	}
	if len(unread) > 0 {
		sort.Strings(unread)
		return fmt.Errorf("attribute %q: not an attribute of this analysis type", unread[0])
	}
	if len(a.nested) > 0 && !a.nestedTaken {
		return fmt.Errorf("%d nested analysis elements: this analysis type takes none", len(a.nested))
	}
	return nil
}

// Nested builds the analysis elements nested in this one through the same
// registry and hands each, with its attributes, to add — which reads there
// whatever the parent keeps on its children (routed: route) before the child
// is held to the same strictness as any element.
func (a *Attrs) Nested(b *Bridge, add func(child *Attrs, built AnalysisAdaptor) error) error {
	a.nestedTaken = true
	return each("nested", a.nested, func(_ string, child *Attrs, f Factory) error {
		built, err := f(child, b)
		if err == nil {
			err = add(child, built)
		}
		return child.verdict(err)
	})
}

// String returns the attribute value or the default if absent.
func (a *Attrs) String(key, def string) string {
	if v, ok := a.lookup(key); ok {
		return v
	}
	return def
}

// Int returns the attribute parsed as an int no smaller than floor, or the
// default if absent (the default itself is not held to floor: 0 can mean
// "derive it").
func (a *Attrs) Int(key string, def, floor int) int {
	v, ok := a.lookup(key)
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	switch {
	case err != nil:
		a.fail(key, "%q is not an integer", v)
	case n < floor:
		a.fail(key, "%d is below the minimum of %d", n, floor)
	default:
		return n
	}
	return def
}

// Float returns the attribute parsed as a float64 or the default if absent.
func (a *Attrs) Float(key string, def float64) float64 {
	v, ok := a.lookup(key)
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		a.fail(key, "%q is not a number", v)
		return def
	}
	return f
}

// Bool returns the attribute parsed as a boolean (1/true/yes/on or
// 0/false/no/off, in any case) or the default if absent.
func (a *Attrs) Bool(key string, def bool) bool {
	v, ok := a.lookup(key)
	if !ok {
		return def
	}
	switch strings.ToLower(v) {
	case "1", "true", "yes", "on":
		return true
	case "0", "false", "no", "off":
		return false
	}
	a.fail(key, "%q is not a boolean (1/true/yes/on or 0/false/no/off)", v)
	return def
}

// Choice returns the index in choices of the attribute's value, or of def if
// the attribute is absent; def must be one of the choices.
func (a *Attrs) Choice(key, def string, choices ...string) int {
	v, ok := a.lookup(key)
	if !ok {
		v = def
	}
	at := -1
	for i, c := range choices {
		if c == v {
			return i
		}
		if c == def {
			at = i
		}
	}
	a.fail(key, "%q is not one of %s", v, strings.Join(choices, ", "))
	return at
}

// Association reads the "association" attribute: "cell", the default, or
// "point".
func (a *Attrs) Association() grid.Association {
	if a.Choice("association", "cell", "cell", "point") == 1 {
		return grid.PointData
	}
	return grid.CellData
}

// xmlConfig mirrors the SENSEI configurable-analysis XML schema; an analysis
// that dispatches to others (routed) nests them:
//
//	<sensei>
//	  <analysis type="histogram" array="data" association="cell" bins="10"/>
//	  <analysis type="catalyst" image-width="1920" image-height="1080"/>
//	  <analysis type="routed" budget-step="0.01">
//	    <analysis route="insitu" type="histogram" bins="10"/>
//	    <analysis route="posthoc" type="histogram-replay" bins="10" dir="blocks"/>
//	  </analysis>
//	</sensei>
type xmlConfig struct {
	XMLName  xml.Name      `xml:"sensei"`
	Analyses []xmlAnalysis `xml:"analysis"`
}

type xmlAnalysis struct {
	Attrs  []xml.Attr    `xml:",any,attr"`
	Nested []xmlAnalysis `xml:"analysis"`
}

// each resolves the enabled elements of one nesting level — attributes, type,
// the factory registered for it, the timing label (the type, plus ":name"
// where a name attribute disambiguates) — and runs fn on each, naming the
// element in whatever fn returns. Elements with enabled="0" are skipped
// unchecked.
func each(kind string, elems []xmlAnalysis, fn func(label string, attrs *Attrs, f Factory) error) error {
	for i, an := range elems {
		attrs := &Attrs{vals: map[string]string{}, nested: an.Nested}
		for _, a := range an.Attrs {
			attrs.vals[a.Name.Local] = a.Value
		}
		typ := attrs.String("type", "")
		if typ == "" {
			return fmt.Errorf("%s element %d missing type attribute", kind, i)
		}
		if !attrs.Bool("enabled", true) {
			continue
		}
		f, ok := lookupFactory(typ)
		if !ok {
			return fmt.Errorf("%s element %d: unknown analysis type %q (registered: %s)", kind, i, typ, strings.Join(FactoryTypes(), ", "))
		}
		label := typ
		if n := attrs.String("name", ""); n != "" {
			label += ":" + n
		}
		if err := fn(label, attrs, f); err != nil {
			return fmt.Errorf("%s element %d (%s): %w", kind, i, typ, err)
		}
	}
	return nil
}

// Config is a parsed configuration document. It is read-only once parsed, so
// the goroutine ranks of one process configure their bridges from one value.
type Config struct{ analyses []xmlAnalysis }

// ParseConfig parses a SENSEI configuration document and checks what can be
// checked without a rank to build on: the XML is well formed and every
// enabled element, nested ones included, names a registered analysis type.
// A launcher calls it before any rank exists.
func ParseConfig(doc []byte) (*Config, error) {
	var cfg xmlConfig
	if err := xml.Unmarshal(doc, &cfg); err != nil {
		return nil, fmt.Errorf("core: parse sensei config: %w", err)
	}
	if err := checkTypes("core: analysis", cfg.Analyses); err != nil {
		return nil, err
	}
	return &Config{analyses: cfg.Analyses}, nil
}

// checkTypes resolves every enabled element of one level, and of the levels
// nested in it, without building anything.
func checkTypes(kind string, elems []xmlAnalysis) error {
	return each(kind, elems, func(_ string, attrs *Attrs, _ Factory) error {
		if attrs.err != nil {
			return attrs.err
		}
		return checkTypes("nested", attrs.nested)
	})
}

// Configure registers the analyses the document describes on the bridge, in
// document order. Each is timed under its type name (plus an optional name
// attribute for disambiguation). An attribute a factory rejects or does not
// know is an error naming the element and the attribute.
func (cfg *Config) Configure(b *Bridge) error {
	return each("core: analysis", cfg.analyses, func(label string, attrs *Attrs, f Factory) error {
		a, err := f(attrs, b)
		if err = attrs.verdict(err); err == nil {
			b.AddAnalysis(label, a)
		}
		return err
	})
}

// ConfigureFromXML is ParseConfig then Configure, for callers that hold the
// document and one bridge.
//
//lint:ignore unreferenced TestConfigureFromXML and tests in 13 more packages configure bridges from inline XML with it
func ConfigureFromXML(b *Bridge, doc []byte) error {
	cfg, err := ParseConfig(doc)
	if err != nil {
		return err
	}
	return cfg.Configure(b)
}
