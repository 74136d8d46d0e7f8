package route

import "gosensei/internal/metrics"

// Config tunes the router. The zero value routes everything in situ with no
// budget; Normalize fills defaults.
type Config struct {
	// Budget declares the per-step ceilings routes are scored against.
	Budget Budget
	// Eligible lists the backends the router may choose. Empty means
	// in situ only.
	Eligible []Backend
	// Start is the backend of step 0 (before any observations).
	Start Backend
	// MinDwell is the minimum number of steps between voluntary switches.
	// Forced switches (budget violation, failure) ignore it. Default 4.
	MinDwell int
	// SwitchMargin is the fractional predicted win a challenger must show
	// over the incumbent before a voluntary switch (0.2 = 20%). Default 0.2.
	SwitchMargin float64
	// Alpha is the EWMA weight of the newest observation (0 = default 0.3).
	Alpha float64
	// PriorWeight is the pseudo-count of the perfmodel prior: the blend is
	// w = PriorWeight/(PriorWeight+observations), so after PriorWeight
	// observations the prior and the posterior weigh equally. Default 4.
	PriorWeight float64
	// ProbeInterval is how many steps a failed backend stays quarantined
	// before the router considers it again. Default 8.
	ProbeInterval int
}

// Normalize returns cfg with defaults filled in.
func (cfg Config) Normalize() Config {
	if len(cfg.Eligible) == 0 {
		cfg.Eligible = []Backend{InSitu}
	}
	if cfg.MinDwell <= 0 {
		cfg.MinDwell = 4
	}
	if cfg.SwitchMargin <= 0 {
		cfg.SwitchMargin = 0.2
	}
	if cfg.PriorWeight <= 0 {
		cfg.PriorWeight = 4
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 8
	}
	return cfg
}

// Router picks a backend for each analysis step. It is a deterministic state
// machine: identical configs fed identical step/observation sequences emit
// identical decision logs (the property the faultline replay tests pin).
// A Router serves one rank's decision loop and is not safe for concurrent
// use; in an MPI run, rank 0 decides and broadcasts (see core.Routed).
type Router struct {
	cfg   Config
	prior [NumBackends]Estimate

	// Posterior state, per backend. Arrays, not maps: decision order must
	// never depend on map iteration.
	seconds [NumBackends]metrics.EWMA
	wire    [NumBackends]metrics.EWMA
	storage [NumBackends]metrics.EWMA
	obs     [NumBackends]int

	// failedAt[b] is the step of b's most recent reported failure, -1 if
	// none. A failed backend is quarantined for ProbeInterval steps.
	failedAt [NumBackends]int

	current    Backend
	lastSwitch int
	decided    bool
	decisions  []Decision
	switches   int
}

// New builds a router from cfg and per-backend prior estimates (typically
// perfmodel.RoutePrior; a zero prior means "assumed free until observed").
func New(cfg Config, prior [NumBackends]Estimate) *Router {
	cfg = cfg.Normalize()
	r := &Router{cfg: cfg, prior: prior, current: cfg.Start}
	if !r.eligible(r.current) {
		r.current = cfg.Eligible[0]
	}
	for b := range r.failedAt {
		r.failedAt[b] = -1
	}
	for b := range r.seconds {
		r.seconds[b].Alpha = cfg.Alpha
		r.wire[b].Alpha = cfg.Alpha
		r.storage[b].Alpha = cfg.Alpha
	}
	return r
}

func (r *Router) eligible(b Backend) bool {
	for _, e := range r.cfg.Eligible {
		if e == b {
			return true
		}
	}
	return false
}

// quarantined reports whether b is inside its post-failure probe window.
func (r *Router) quarantined(b Backend, step int) bool {
	return r.failedAt[b] >= 0 && step-r.failedAt[b] < r.cfg.ProbeInterval
}

// Predict returns the blended prior/posterior estimate for b:
// w·prior + (1−w)·posterior with w = PriorWeight/(PriorWeight+observations).
// With no observations it is exactly the prior; the prior's pull fades as
// evidence accumulates.
func (r *Router) Predict(b Backend) Estimate {
	n := float64(r.obs[b])
	if n == 0 {
		return r.prior[b]
	}
	w := r.cfg.PriorWeight / (r.cfg.PriorWeight + n)
	blend := func(prior, post float64) float64 {
		if prior == post { // exact fixed point, same rationale as EWMA.Observe
			return post
		}
		return w*prior + (1-w)*post
	}
	return Estimate{
		Seconds:      blend(r.prior[b].Seconds, r.seconds[b].Value()),
		WireBytes:    int64(blend(float64(r.prior[b].WireBytes), r.wire[b].Value())),
		StorageBytes: int64(blend(float64(r.prior[b].StorageBytes), r.storage[b].Value())),
	}
}

// SetPrior replaces b's prior estimate — the prior-adapter hook. When the
// workload declares a change the model can re-predict without waiting for
// observations (a renegotiated extract shrinks the shipped array, a new
// analysis configuration changes the compute), the caller recomputes the
// perfmodel prior and installs it here; it takes effect at the next Decide,
// still blended against whatever posterior evidence has accumulated.
func (r *Router) SetPrior(b Backend, e Estimate) {
	if b < 0 || b >= NumBackends {
		return
	}
	r.prior[b] = e
}

// Observe folds a measured step cost for b into the posterior and lifts any
// failure quarantine (a successful step is proof of life).
func (r *Router) Observe(step int, b Backend, e Estimate) {
	if b < 0 || b >= NumBackends {
		return
	}
	r.seconds[b].Observe(e.Seconds)
	r.wire[b].Observe(float64(e.WireBytes))
	r.storage[b].Observe(float64(e.StorageBytes))
	r.obs[b]++
	r.failedAt[b] = -1
}

// ReportFailure quarantines b for ProbeInterval steps starting at step. If b
// is the current backend, the next Decide is a forced switch.
func (r *Router) ReportFailure(step int, b Backend) {
	if b < 0 || b >= NumBackends {
		return
	}
	r.failedAt[b] = step
}

// Decide routes one step. Steps must be presented in nondecreasing order.
//
// The control loop, in priority order:
//  1. forced: the incumbent is quarantined (failure) or its prediction
//     violates the budget while a feasible alternative exists — switch to
//     the cheapest feasible backend immediately, dwell clock ignored;
//  2. dwell: fewer than MinDwell steps since the last switch — hold;
//  3. margin: the cheapest feasible challenger must beat the incumbent's
//     predicted latency by SwitchMargin, otherwise hold;
//  4. nothing feasible anywhere: hold the least-overage backend (switching
//     there is forced if it isn't the incumbent).
func (r *Router) Decide(step int) Decision {
	var pred [NumBackends]Estimate
	for b := Backend(0); b < NumBackends; b++ {
		pred[b] = r.Predict(b)
	}

	// Candidates: eligible and not quarantined. The incumbent is considered
	// separately so a fully-quarantined world still routes somewhere.
	best, bestOK := r.cheapestFeasible(pred, step)
	incumbent := r.current
	incumbentDown := r.quarantined(incumbent, step)
	incumbentOver := !r.cfg.Budget.Feasible(pred[incumbent])

	choice := incumbent
	reason := "hold"
	forced := false

	switch {
	case incumbentDown:
		forced = true
		reason = "failed"
		if bestOK {
			choice = best
		} else {
			choice = r.leastOverage(pred, step, incumbent)
		}
	case incumbentOver && bestOK && best != incumbent:
		forced = true
		reason = "budget"
		choice = best
	case incumbentOver && !bestOK:
		// Nothing feasible: ride the least-overage backend.
		lo := r.leastOverage(pred, step, NumBackends)
		if lo != incumbent {
			forced = true
			reason = "overage"
			choice = lo
		} else {
			reason = "overage"
		}
	case bestOK && best != incumbent:
		// Voluntary switch: dwell + margin hysteresis.
		if r.decided && step-r.lastSwitch < r.cfg.MinDwell {
			reason = "dwell"
		} else if pred[best].Seconds < pred[incumbent].Seconds*(1-r.cfg.SwitchMargin) {
			reason = "cheapest"
			choice = best
		} else {
			reason = "margin"
		}
	}

	switched := r.decided && choice != r.current
	if !r.decided {
		r.decided = true
		r.lastSwitch = step
	}
	if switched {
		r.switches++
		r.lastSwitch = step
	}
	r.current = choice
	d := Decision{
		Step:      step,
		Backend:   choice,
		Switched:  switched,
		Forced:    forced && switched,
		Reason:    reason,
		Predicted: pred,
	}
	r.decisions = append(r.decisions, d)
	return d
}

// cheapestFeasible returns the eligible, unquarantined backend with the
// lowest predicted latency that fits the budget. Ties break toward the
// incumbent, then toward the lower backend index (deterministic).
func (r *Router) cheapestFeasible(pred [NumBackends]Estimate, step int) (Backend, bool) {
	found := false
	var best Backend
	for b := Backend(0); b < NumBackends; b++ {
		if !r.eligible(b) || r.quarantined(b, step) || !r.cfg.Budget.Feasible(pred[b]) {
			continue
		}
		if !found || better(pred[b], pred[best], b == r.current, best == r.current) {
			best = b
			found = true
		}
	}
	return best, found
}

// leastOverage returns the eligible backend minimizing budget overage;
// prefer is favored on ties (pass NumBackends for no preference).
// Quarantined backends are skipped unless everything is quarantined.
func (r *Router) leastOverage(pred [NumBackends]Estimate, step int, prefer Backend) Backend {
	pick := func(skipQuarantined bool) (Backend, bool) {
		found := false
		var best Backend
		var bestOver float64
		for b := Backend(0); b < NumBackends; b++ {
			if !r.eligible(b) || (skipQuarantined && r.quarantined(b, step)) {
				continue
			}
			over := r.cfg.Budget.Overage(pred[b])
			if !found || over < bestOver || (over == bestOver && b == prefer) {
				best, bestOver, found = b, over, true
			}
		}
		return best, found
	}
	if b, ok := pick(true); ok {
		return b
	}
	b, _ := pick(false)
	return b
}

// better reports whether a's estimate beats b's for the cheapest-feasible
// scan: strictly lower latency wins; equal latency keeps the incumbent.
func better(a, b Estimate, aIsCurrent, bIsCurrent bool) bool {
	if a.Seconds != b.Seconds {
		return a.Seconds < b.Seconds
	}
	return aIsCurrent && !bIsCurrent
}

// Switches returns the number of backend changes decided so far.
func (r *Router) Switches() int { return r.switches }

// Decisions returns the full decision log, one entry per Decide call.
func (r *Router) Decisions() []Decision { return r.decisions }

// Budget returns the configured budget (for harnesses scoring outcomes).
func (r *Router) Budget() Budget { return r.cfg.Budget }
