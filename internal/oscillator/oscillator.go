// Package oscillator implements the miniapplication of the SC16 SENSEI
// paper's §3.3: a collection of periodic, damped, or decaying oscillators
// placed in a 3D domain, each convolved with a Gaussian of prescribed width.
// Every time step the simulation fills its local grid cells with the sum of
// the convolved oscillator values, for m oscillators and an N³ local
// subgrid. Only the amplitudes depend on time, so the m·N³ Gaussian exps are
// paid once per lifetime, in the first step; every later step costs m
// multiply-adds per cell (plus one product and an int16 correction each,
// see Sim). The computation is embarrassingly parallel and, as in the
// paper's experiments, needs no per-step synchronization.
package oscillator

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Kind selects an oscillator's time behavior.
type Kind int

// Oscillator kinds.
const (
	// Periodic oscillators follow sin(ω₀ t).
	Periodic Kind = iota
	// Damped oscillators follow the underdamped second-order step response
	// 1 − e^{−ζω₀t}·sin(ω_d t + φ)/sin φ with ω_d = ω₀√(1−ζ²), φ = acos ζ.
	Damped
	// Decaying oscillators follow sin(ω₀ t)·e^{−ζω₀t}.
	Decaying
)

func (k Kind) String() string {
	switch k {
	case Periodic:
		return "periodic"
	case Damped:
		return "damped"
	case Decaying:
		return "decaying"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind converts a deck keyword into a Kind.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "periodic":
		return Periodic, nil
	case "damped":
		return Damped, nil
	case "decaying":
		return Decaying, nil
	}
	return 0, fmt.Errorf("oscillator: unknown kind %q", s)
}

// Oscillator is one source: a center, a Gaussian radius, a base angular
// frequency Omega0, and a damping ratio Zeta (ignored for Periodic).
type Oscillator struct {
	Kind   Kind
	Center [3]float64
	Radius float64
	Omega0 float64
	Zeta   float64
}

// Amplitude returns the oscillator's time factor at time t.
func (o Oscillator) Amplitude(t float64) float64 {
	switch o.Kind {
	case Periodic:
		return math.Sin(o.Omega0 * t)
	case Damped:
		z := o.Zeta
		if z <= 0 || z >= 1 {
			// Degenerate damping: fall back to critically-damped-ish form.
			return 1 - math.Exp(-o.Omega0*t)
		}
		phi := math.Acos(z)
		wd := o.Omega0 * math.Sqrt(1-z*z)
		return 1 - math.Exp(-z*o.Omega0*t)*math.Sin(wd*t+phi)/math.Sin(phi)
	case Decaying:
		return math.Sin(o.Omega0*t) * math.Exp(-o.Zeta*o.Omega0*t)
	}
	return 0
}

// Evaluate returns the oscillator's contribution at position (x, y, z) and
// time t: the time factor attenuated by the Gaussian kernel.
func (o Oscillator) Evaluate(x, y, z, t float64) float64 {
	dx := x - o.Center[0]
	dy := y - o.Center[1]
	dz := z - o.Center[2]
	d2 := dx*dx + dy*dy + dz*dz
	return o.Amplitude(t) * math.Exp(-d2/(2*o.Radius*o.Radius))
}

// maxTwoR2 bounds a Gaussian's denominator 2R². Below it, a cell whose d²
// overflows has d²/2R² ≥ 1024, past where exp underflows to 0, so the
// direct sum's 0 there is the right value and so is the cached product's.
const maxTwoR2 = math.MaxFloat64 / 1024

// validate is the one rule for an oscillator, whether it came from a deck
// line or was built in code: finite fields, a positive radius, and a 2R²
// neither 0 (its center cell would read 0/0) nor past maxTwoR2.
func (o Oscillator) validate() error {
	for _, v := range []float64{o.Center[0], o.Center[1], o.Center[2], o.Radius, o.Omega0, o.Zeta} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%v is not a finite number", v)
		}
	}
	if o.Radius <= 0 {
		return fmt.Errorf("radius must be positive")
	}
	if twoR2 := 2 * o.Radius * o.Radius; twoR2 == 0 || twoR2 > maxTwoR2 {
		return fmt.Errorf("radius %v gives 2R² = %v, outside (0, %v]", o.Radius, twoR2, maxTwoR2)
	}
	return nil
}

// ParseDeck reads an oscillator input deck: one oscillator per line in the
// form "kind cx cy cz radius omega0 [zeta]"; '#' starts a comment.
func ParseDeck(r io.Reader) ([]Oscillator, error) {
	var out []Oscillator
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 6 || len(fields) > 7 {
			return nil, fmt.Errorf("oscillator: deck line %d: want 6 or 7 fields, got %d", lineNo, len(fields))
		}
		kind, err := ParseKind(fields[0])
		if err != nil {
			return nil, fmt.Errorf("oscillator: deck line %d: %w", lineNo, err)
		}
		vals := make([]float64, len(fields)-1)
		for i, f := range fields[1:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("oscillator: deck line %d field %d: %w", lineNo, i+2, err)
			}
			vals[i] = v
		}
		o := Oscillator{
			Kind:   kind,
			Center: [3]float64{vals[0], vals[1], vals[2]},
			Radius: vals[3],
			Omega0: vals[4],
		}
		if len(vals) == 6 {
			o.Zeta = vals[5]
		}
		if err := o.validate(); err != nil {
			return nil, fmt.Errorf("oscillator: deck line %d: %w", lineNo, err)
		}
		out = append(out, o)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("oscillator: read deck: %w", err)
	}
	return out, nil
}

// DefaultDeck returns a deterministic deck with one oscillator of each kind,
// scaled to a domain of the given edge length. It mirrors the sample input
// shipped with the original miniapp.
func DefaultDeck(edge float64) []Oscillator {
	return []Oscillator{
		{Kind: Damped, Center: [3]float64{edge * 0.25, edge * 0.25, edge * 0.5}, Radius: edge * 0.15, Omega0: 3.14, Zeta: 0.3},
		{Kind: Periodic, Center: [3]float64{edge * 0.75, edge * 0.75, edge * 0.5}, Radius: edge * 0.1, Omega0: 9.5},
		{Kind: Decaying, Center: [3]float64{edge * 0.5, edge * 0.5, edge * 0.5}, Radius: edge * 0.2, Omega0: 4.8, Zeta: 0.1},
	}
}
