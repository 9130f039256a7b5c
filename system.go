package coolopt

import (
	"fmt"

	"coolopt/internal/baseline"
	"coolopt/internal/core"
	"coolopt/internal/engine"
	"coolopt/internal/mathx"
	"coolopt/internal/profiling"
	"coolopt/internal/room"
	"coolopt/internal/sim"
	"coolopt/internal/telemetry"
	"coolopt/internal/units"
)

// System bundles a simulated machine room with its profiled model and the
// eight-scenario planner — everything needed to reproduce the paper's
// evaluation end to end.
type System struct {
	sim       *sim.Simulator
	profiling *profiling.Result
	planner   *baseline.Planner
	engine    *engine.Engine
	opts      options
}

type options struct {
	seed      int64
	machines  int
	marginC   float64
	settleS   float64
	measureS  int
	rackSpec  *room.RackSpec
	gradient  *gradientOption
	jitter    *float64
	row       *rowOption
	noise     *noiseOption
	copScale  float64
	tMaxC     float64
	preOpts   []core.PreprocessOption
	hier      bool
	podOpts   []core.PodOption
	engOpts   []engine.Option
	profiling profiling.Config
}

// Option configures NewSystem.
type Option interface {
	apply(*options)
}

type seedOption int64

func (o seedOption) apply(opts *options) { opts.seed = int64(o) }

// WithSeed sets the seed driving rack jitter and sensor noise (default 1).
func WithSeed(seed int64) Option { return seedOption(seed) }

type machinesOption int

func (o machinesOption) apply(opts *options) { opts.machines = int(o) }

// WithMachines sets the rack size (default 20, the paper's testbed).
func WithMachines(n int) Option { return machinesOption(n) }

type marginOption float64

func (o marginOption) apply(opts *options) { opts.marginC = float64(o) }

// WithSafetyMargin sets the guard band in °C subtracted from every
// commanded supply temperature to absorb model error (default 2.5).
func WithSafetyMargin(c float64) Option { return marginOption(c) }

type settleOption float64

func (o settleOption) apply(opts *options) { opts.settleS = float64(o) }

// WithSettleSeconds sets the per-scenario settling horizon (default 1200).
func WithSettleSeconds(s float64) Option { return settleOption(s) }

type rackSpecOption room.RackSpec

func (o rackSpecOption) apply(opts *options) {
	spec := room.RackSpec(o)
	opts.rackSpec = &spec
	opts.machines = spec.N
}

type gradientOption struct{ bottom, top float64 }

func (o gradientOption) apply(opts *options) {
	opts.gradient = &o
}

// WithGradient sets the rack's supply-air gradient: the fraction of
// intake drawn straight from the CRAC supply at the bottom and top slots
// (defaults 0.98 and 0.60). Equal values make the room thermally uniform.
func WithGradient(bottom, top float64) Option { return gradientOption{bottom: bottom, top: top} }

type jitterOption float64

func (o jitterOption) apply(opts *options) { v := float64(o); opts.jitter = &v }

// WithJitter sets the relative per-machine parameter variation (default
// 0.07; 0 makes machines physically identical).
func WithJitter(j float64) Option { return jitterOption(j) }

type rowOption struct{ racks, perRack int }

func (o rowOption) apply(opts *options) {
	opts.row = &o
	opts.machines = o.racks * o.perRack
}

// WithRow builds a row of racks instead of a single rack: racks racks of
// perRack machines each, with racks farther from the CRAC receiving a
// weaker share of supply air — the paper's across-racks setting.
func WithRow(racks, perRack int) Option { return rowOption{racks: racks, perRack: perRack} }

type copScaleOption float64

func (o copScaleOption) apply(opts *options) { opts.copScale = float64(o) }

type noiseOption struct{ tempC, powerW float64 }

func (o noiseOption) apply(opts *options) { opts.noise = &o }

// WithSensorNoise scales the measurement chain: tempC is the CPU-sensor
// noise standard deviation in °C and powerW the power-meter noise in
// Watts (defaults 0.4 and 0.8; pass negative values to disable noise).
func WithSensorNoise(tempC, powerW float64) Option {
	return noiseOption{tempC: tempC, powerW: powerW}
}

// WithCOPScale scales the CRAC's coefficient-of-performance curve
// (default 1). Values above 1 model a more efficient cooling plant,
// shrinking the cooling share of total power.
func WithCOPScale(scale float64) Option { return copScaleOption(scale) }

type preprocessOption []core.PreprocessOption

func (o preprocessOption) apply(opts *options) {
	opts.preOpts = append(opts.preOpts, o...)
}

// WithPreprocess forwards consolidation preprocessing options — machine
// cap and worker pool (WithMaxMachines, WithPreprocessWorkers) — to the
// snapshot built during NewSystem. Required for rooms larger than the
// default preprocessing cap.
func WithPreprocess(opts ...PreprocessOption) Option { return preprocessOption(opts) }

type hierarchyOption []core.PodOption

func (o hierarchyOption) apply(opts *options) {
	opts.hier = true
	opts.podOpts = append(opts.podOpts, o...)
}

// WithHierarchy additionally builds a pod-sharded planner tree
// (WithPodSize, WithPodCount, WithPodDepth) whose table-free pod leaves
// each solve their slice of the load by Dinkelbach's iteration, and
// serves the engine from it instead of the whole-room snapshot; Planner
// and Snapshot keep the whole-room tables.
func WithHierarchy(opts ...PodOption) Option { return hierarchyOption(opts) }

type engineOptsOption []engine.Option

func (o engineOptsOption) apply(opts *options) {
	opts.engOpts = append(opts.engOpts, o...)
}

// WithEngineOptions forwards serving options (WithMaxInFlight,
// WithExactCacheKeys, …) to the plan engine built during NewSystem.
func WithEngineOptions(opts ...EngineOption) Option { return engineOptsOption(opts) }

// NewSystem builds the simulated machine room, runs the full profiling
// protocol against it, and returns a System ready to evaluate scenarios.
func NewSystem(opts ...Option) (*System, error) {
	o := options{
		seed:     1,
		machines: 20,
		marginC:  2.5,
		settleS:  1200,
		measureS: 120,
		tMaxC:    sim.DefaultTMaxC,
	}
	for _, opt := range opts {
		opt.apply(&o)
	}
	if o.machines <= 0 {
		return nil, fmt.Errorf("coolopt: machine count %d must be positive", o.machines)
	}
	if o.marginC < 0 {
		return nil, fmt.Errorf("coolopt: safety margin %v must be non-negative", o.marginC)
	}

	spec := room.DefaultRackSpec()
	if o.rackSpec != nil {
		spec = *o.rackSpec
	}
	spec.N = o.machines
	spec.Seed = o.seed
	if o.gradient != nil {
		spec.SupplyFracBottom = o.gradient.bottom
		spec.SupplyFracTop = o.gradient.top
	}
	if o.jitter != nil {
		spec.Jitter = *o.jitter
	}
	var (
		rack *room.Rack
		err  error
	)
	if o.row != nil {
		rowSpec := room.DefaultRowSpec()
		rowSpec.Racks = o.row.racks
		spec.N = o.row.perRack
		rowSpec.Base = spec
		rack, err = room.GenRow(rowSpec)
	} else {
		rack, err = room.GenRack(spec)
	}
	if err != nil {
		return nil, err
	}
	crac := sim.DefaultCRAC()
	if o.copScale != 0 {
		if o.copScale < 0 {
			return nil, fmt.Errorf("coolopt: COP scale %v must be positive", o.copScale)
		}
		crac.COP.A *= o.copScale
		crac.COP.B *= o.copScale
		crac.COP.C *= o.copScale
	}
	// Scale the CRAC flow with rack size so larger rooms stay
	// physical: machines pull ≈0.01 m³/s each, plus 50 % bypass.
	crac.Flow = 0.015 * float64(o.machines)
	simCfg := sim.Config{
		Rack:      rack,
		CRAC:      crac,
		SetPointC: sim.DefaultSetPointC,
		Seed:      o.seed + 1,
		BaseHeatW: sim.DefaultBaseHeatW * float64(o.machines) / 20,
	}
	if o.noise != nil {
		simCfg.TempNoiseC = o.noise.tempC
		simCfg.PowerNoiseW = o.noise.powerW
	}
	s, err := sim.New(simCfg)
	if err != nil {
		return nil, err
	}

	profCfg := o.profiling
	profCfg.Sim = s
	if profCfg.TMaxC == 0 {
		profCfg.TMaxC = o.tMaxC
	}
	if profCfg.TAcMinC == 0 && profCfg.TAcMaxC == 0 {
		profCfg.TAcMinC = crac.SupplyMin
		profCfg.TAcMaxC = crac.SupplyMax
	}
	res, err := profiling.Run(profCfg)
	if err != nil {
		return nil, fmt.Errorf("coolopt: profiling: %w", err)
	}
	snap, err := core.NewSnapshot(res.Profile, 0, o.preOpts...)
	if err != nil {
		return nil, fmt.Errorf("coolopt: snapshot: %w", err)
	}
	planner, err := baseline.NewPlannerOn(snap)
	if err != nil {
		return nil, fmt.Errorf("coolopt: planner: %w", err)
	}
	var eng *engine.Engine
	if o.hier {
		pods, err := core.NewPodSnapshot(res.Profile, 0, o.podOpts...)
		if err != nil {
			return nil, fmt.Errorf("coolopt: pod tree: %w", err)
		}
		if eng, err = engine.FromPodSnapshot(pods, o.engOpts...); err != nil {
			return nil, fmt.Errorf("coolopt: hierarchy: %w", err)
		}
	} else {
		eng = engine.New(planner, o.engOpts...)
	}
	return &System{sim: s, profiling: res, planner: planner, engine: eng, opts: o}, nil
}

// Clone returns a System running its own copy of the simulated room while
// sharing the profiled model and planner (both read-only after
// construction). The clone starts from this system's current physical
// state; its sensor-noise streams are derived from seed, so clones with
// equal seeds produce identical measurements. Use clones to evaluate
// scenarios concurrently — a System itself is not safe for concurrent
// Evaluate/Execute calls.
func (s *System) Clone(seed int64) *System {
	return &System{
		sim:       s.sim.Clone(seed),
		profiling: s.profiling,
		planner:   s.planner,
		engine:    s.engine,
		opts:      s.opts,
	}
}

// Sim exposes the underlying simulator.
func (s *System) Sim() *sim.Simulator { return s.sim }

// Profiling returns the profiling result (profile, calibration, fits).
func (s *System) Profiling() *ProfilingResult { return s.profiling }

// Profile returns the fitted room model.
func (s *System) Profile() *Profile { return s.profiling.Profile }

// Planner returns the eight-scenario planner.
func (s *System) Planner() *Planner { return s.planner }

// Snapshot returns the frozen planning model built during NewSystem —
// safe to share across goroutines without Clone.
func (s *System) Snapshot() *Snapshot { return s.planner.Snapshot() }

// Engine returns the concurrent plan-serving engine over the system's
// whole-room snapshot, or over its pod tree under WithHierarchy. Clones
// share the engine: it only touches the frozen model,
// never the simulated room.
func (s *System) Engine() *Engine { return s.engine }

// Pods returns the pod-sharded planner tree the engine serves under
// WithHierarchy, or nil when it serves the whole-room tables.
func (s *System) Pods() *PodSnapshot { return s.engine.Pods() }

// Size returns the number of machines.
func (s *System) Size() int { return s.sim.Size() }

// Measurement is the steady-state outcome of running one scenario at one
// load point on the simulated room.
type Measurement struct {
	// Method and LoadPct identify the scenario and operating point.
	Method  Method
	LoadPct float64
	// TotalW is the room's metered total power (servers + CRAC).
	TotalW units.Watts
	// ServerW and CoolW decompose it.
	ServerW units.Watts
	CoolW   units.Watts
	// SupplyC is the achieved CRAC supply temperature; PlanTAcC is what
	// the plan asked for (before the safety margin).
	SupplyC  units.Celsius
	PlanTAcC units.Celsius
	// MaxCPUC is the hottest ground-truth CPU temperature observed
	// during the measurement window; Violated reports whether it
	// exceeded T_max.
	MaxCPUC  units.Celsius
	Violated bool
	// PredictedW is what the fitted model expected the plan to draw
	// (Eq. 23 accounting) — compare with TotalW to judge model error.
	PredictedW units.Watts
	// MachinesOn counts powered-on machines.
	MachinesOn int
	// CarriedLoad is the total utilization actually applied — the
	// throughput constraint check.
	CarriedLoad float64
}

// Evaluate plans one scenario at loadFrac (fraction of total cluster
// capacity, 0–1), applies it to the room, waits for steady state, and
// returns averaged measurements.
func (s *System) Evaluate(m Method, loadFrac float64) (*Measurement, error) {
	if loadFrac < 0 || loadFrac > 1 {
		return nil, fmt.Errorf("coolopt: load fraction %v outside [0, 1]", loadFrac)
	}
	load := loadFrac * float64(s.Size())
	plan, err := s.planner.Plan(m, load)
	if err != nil {
		return nil, err
	}
	return s.Execute(m, plan, loadFrac)
}

// Apply pushes a plan onto the room without waiting: machines power on
// before taking load, unload before powering off, and the CRAC set point
// is chosen to command the plan's supply temperature (minus the safety
// margin) through the profiled calibration.
func (s *System) Apply(plan *Plan) error {
	onSet := make(map[int]bool, len(plan.On))
	for _, i := range plan.On {
		onSet[i] = true
	}
	for i := 0; i < s.Size(); i++ {
		if onSet[i] {
			if err := s.sim.SetPower(i, true); err != nil {
				return err
			}
		}
	}
	loads := make([]float64, len(plan.Loads))
	for i, l := range plan.Loads {
		// Absorb closed-form floating-point slop at the box bounds;
		// anything beyond tolerance is a real planning bug.
		if l < -1e-6 || l > 1+1e-6 {
			return fmt.Errorf("coolopt: plan load %v for machine %d outside [0, 1]", l, i)
		}
		loads[i] = mathx.Clamp(l, 0, 1)
	}
	if err := s.sim.SetLoads(loads); err != nil {
		return err
	}
	for i := 0; i < s.Size(); i++ {
		if !onSet[i] {
			if err := s.sim.SetPower(i, false); err != nil {
				return err
			}
		}
	}

	profile := s.Profile()
	var predictedW units.Watts
	for _, i := range plan.On {
		predictedW += profile.ServerPower(plan.Loads[i])
	}
	desired := plan.TAcC - s.SafetyMargin()
	if desired < units.Celsius(profile.TAcMinC) {
		desired = units.Celsius(profile.TAcMinC)
	}
	s.sim.SetSetPoint(float64(s.profiling.Calibration.SetPointFor(desired, predictedW)))
	return nil
}

// SafetyMargin returns the guard band in °C applied to commanded supply
// temperatures.
func (s *System) SafetyMargin() units.Celsius { return units.Celsius(s.opts.marginC) }

// Execute applies an explicit plan to the room, waits for steady state,
// and measures.
func (s *System) Execute(m Method, plan *Plan, loadFrac float64) (*Measurement, error) {
	if err := s.Apply(plan); err != nil {
		return nil, err
	}
	s.sim.Run(s.opts.settleS)

	// Measurement window: tail averages over measureS seconds.
	var totalTr, servTr, coolTr telemetry.Trace
	maxCPU := -1e9
	for k := 0; k < s.opts.measureS; k++ {
		s.sim.Step()
		var serv float64
		for i := 0; i < s.Size(); i++ {
			serv += s.sim.MeasuredServerPower(i)
		}
		cool := s.sim.MeasuredCRACPower()
		servTr.Append(s.sim.Time(), serv)
		coolTr.Append(s.sim.Time(), cool)
		totalTr.Append(s.sim.Time(), serv+cool)
		if t := s.sim.MaxTrueCPUTemp(); t > maxCPU {
			maxCPU = t
		}
	}

	n := s.opts.measureS
	return &Measurement{
		Method:      m,
		LoadPct:     loadFrac * 100,
		TotalW:      units.Watts(totalTr.Tail(n)),
		ServerW:     units.Watts(servTr.Tail(n)),
		CoolW:       units.Watts(coolTr.Tail(n)),
		SupplyC:     units.Celsius(s.sim.Supply()),
		PlanTAcC:    plan.TAcC,
		PredictedW:  s.predictedPower(plan),
		MaxCPUC:     units.Celsius(maxCPU),
		Violated:    maxCPU > s.Profile().TMaxC,
		MachinesOn:  len(plan.On),
		CarriedLoad: plan.TotalLoad(),
	}, nil
}

// predictedPower is the model's expectation for an executed plan: server
// power per Eq. 9 over the on set plus cooling per Eq. 10 at the supply
// temperature actually commanded (plan target minus the guard band).
func (s *System) predictedPower(plan *Plan) units.Watts {
	profile := s.Profile()
	desired := plan.TAcC - s.SafetyMargin()
	if desired < units.Celsius(profile.TAcMinC) {
		desired = units.Celsius(profile.TAcMinC)
	}
	total := profile.CoolingPower(desired)
	for _, i := range plan.On {
		total += profile.ServerPower(plan.Loads[i])
	}
	return total
}

// Sweep evaluates every given method at every load fraction and returns
// the measurements in method-major order.
func (s *System) Sweep(methods []Method, loadFracs []float64) ([]Measurement, error) {
	out := make([]Measurement, 0, len(methods)*len(loadFracs))
	for _, m := range methods {
		for _, lf := range loadFracs {
			meas, err := s.Evaluate(m, lf)
			if err != nil {
				return nil, fmt.Errorf("coolopt: %v at %.0f%%: %w", m, lf*100, err)
			}
			out = append(out, *meas)
		}
	}
	return out, nil
}
