package core

import (
	"encoding/xml"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"gosensei/internal/grid"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
)

// Env is the per-rank environment handed to analysis factories: the
// communicator and the rank's instrumentation sinks.
type Env struct {
	Comm     *mpi.Comm
	Registry *metrics.Registry
	Memory   *metrics.Tracker
}

// Factory builds an analysis adaptor from XML attributes. Factories are
// registered by the packages implementing analyses and infrastructures
// (histogram, autocorrelation, catalyst, libsim, adios, glean) from their
// init functions, mirroring how SENSEI's ConfigurableAnalysis dispatches on
// the "type" attribute.
type Factory func(attrs *Attrs, env *Env) (AnalysisAdaptor, error)

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
	if len(unread) == 0 {
		return nil
	}
	sort.Strings(unread)
	return fmt.Errorf("attribute %q: not an attribute of this analysis type", unread[0])
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

// xmlConfig mirrors the SENSEI configurable-analysis XML schema:
//
//	<sensei>
//	  <analysis type="histogram" array="data" association="cell" bins="10"/>
//	  <analysis type="catalyst" image-width="1920" image-height="1080"/>
//	</sensei>
type xmlConfig struct {
	XMLName  xml.Name      `xml:"sensei"`
	Analyses []xmlAnalysis `xml:"analysis"`
}

type xmlAnalysis struct {
	Attrs []xml.Attr `xml:",any,attr"`
}

// ConfigureFromXML parses a SENSEI configuration document and registers the
// described analyses on the bridge. Analyses with enabled="0" are skipped.
// Each analysis is timed under its type name (plus an optional name
// attribute for disambiguation). An attribute a factory rejects or does not
// know is an error naming the element and the attribute.
func ConfigureFromXML(b *Bridge, doc []byte) error {
	var cfg xmlConfig
	if err := xml.Unmarshal(doc, &cfg); err != nil {
		return fmt.Errorf("core: parse sensei config: %w", err)
	}
	env := &Env{Comm: b.Comm, Registry: b.Registry, Memory: b.Memory}
	for i, an := range cfg.Analyses {
		attrs := &Attrs{vals: map[string]string{}}
		for _, a := range an.Attrs {
			attrs.vals[a.Name.Local] = a.Value
		}
		typ := attrs.String("type", "")
		if typ == "" {
			return fmt.Errorf("core: analysis element %d missing type attribute", i)
		}
		if !attrs.Bool("enabled", true) {
			continue
		}
		label := typ
		if n := attrs.String("name", ""); n != "" {
			label = typ + ":" + n
		}
		f, ok := lookupFactory(typ)
		if !ok {
			return fmt.Errorf("core: unknown analysis type %q (registered: %s)", typ, strings.Join(FactoryTypes(), ", "))
		}
		a, err := f(attrs, env)
		if err = attrs.verdict(err); err != nil {
			return fmt.Errorf("core: analysis element %d (%s): %w", i, typ, err)
		}
		b.AddAnalysis(label, a)
	}
	return nil
}
