package target

import (
	"errors"
	"fmt"

	"xmrobust/internal/cover"
	"xmrobust/internal/dict"
	"xmrobust/internal/eagleeye"
	"xmrobust/internal/obs"
	"xmrobust/internal/sparc"
	"xmrobust/internal/testgen"
	"xmrobust/internal/xm"
)

func init() {
	Register(SimName,
		"simulated LEON3 + XtratuM-like kernel on the EagleEye testbed (pooled, the default)",
		func(arg string, cfg Config) (Target, error) {
			if arg != "" {
				return nil, fmt.Errorf("target: %q takes no argument", SimName)
			}
			return NewSim(cfg), nil
		})
}

// Sim is the simulation backend: every test runs the EagleEye testbed on
// a simulated LEON3 machine for the selected number of cyclic schedules
// — the paper's execution environment. Machines come from a
// sparc.SnapshotPool, which rewinds them to power-on with Reset, and each
// machine carries the testbed kernel of its last test (sparc.Machine.Host),
// which its next test recycles instead of rebuilding. So every test
// boots from a clean testbed, the way the paper boots TSIM for each one,
// and pays neither a machine allocation nor a system construction.
type Sim struct {
	cfg  Config
	pool *sparc.SnapshotPool

	// mRestores counts in-slot machine rewinds (between the tests of a
	// lease and the legs of a composite); nil when obs is off.
	mRestores *obs.Counter
}

// NewSim builds the simulation backend.
func NewSim(cfg Config) *Sim {
	s := &Sim{cfg: cfg}
	s.mRestores = cfg.Obs.Registry().Counter("xm_sim_slot_restores_total",
		"In-slot machine rewinds (between a lease's tests and a composite's legs).")
	return s
}

// Name returns "sim".
func (s *Sim) Name() string { return SimName }

// Provision sizes the machine pool to the campaign's worker parallelism.
// It is idempotent: a target shared across engine runs keeps its warm
// pool (and the kernels parked on its machines) instead of dropping them
// on every campaign.
func (s *Sim) Provision(workers int) error {
	if s.pool != nil {
		return nil
	}
	if workers < 1 {
		workers = 1
	}
	s.pool = sparc.NewSnapshotPool(sparc.DefaultConfig(), workers)
	s.pool.SetStrict(s.cfg.PoolStrict)
	// Lazy collectors over the pool's own atomic counters: the pool
	// hot path pays nothing, the values materialise at scrape time.
	// Registry methods nil-guard themselves, so no check here.
	r := s.cfg.Obs.Registry()
	pool := s.pool
	r.CounterFunc("xm_pool_allocated_total",
		"Machines the pool built from scratch.",
		func() float64 { return float64(pool.Stats().Allocated) })
	r.CounterFunc("xm_pool_reused_total",
		"Acquires served by a pooled machine rewound to power-on.",
		func() float64 { return float64(pool.Stats().Reused) })
	r.CounterFunc("xm_pool_discarded_total",
		"Machines the pool refused to recycle (crashes, failed verification).",
		func() float64 { return float64(pool.Stats().Discarded) })
	return nil
}

// errNoMachine fails the tests of a slot that holds no machine: the
// pool that leases machines exists only once Provision has run.
var errNoMachine = errors.New("target: sim slot holds no machine (Acquire before Provision)")

// simSlot is the sim backend's execution slot: the leased machine (nil
// when acquired before Provision). It backs the SnapshotSlot capability.
type simSlot struct {
	owner *Sim
	m     *sparc.Machine
}

// Restore rewinds the slot's machine to power-on in place, crashed or
// not, and certifies it with the reset invariants: exactly the state a
// pool round-trip would hand out.
func (sl *simSlot) Restore() error {
	if sl.m == nil {
		return errNoMachine
	}
	sl.owner.mRestores.Inc()
	sl.m.Reset()
	return sl.m.VerifyReset()
}

// Acquire reserves an execution slot, leasing a machine from the pool
// (none before Provision).
func (s *Sim) Acquire() Slot {
	sl := &simSlot{owner: s}
	if s.pool != nil {
		sl.m = s.pool.Get()
	}
	return sl
}

// Release returns a slot's machine, and the kernel parked on it, to the
// pool.
func (s *Sim) Release(slot Slot) {
	if sl, _ := slot.(*simSlot); sl != nil && sl.m != nil {
		s.pool.Put(sl.m)
		sl.m = nil
	}
}

// PoolStats reports the machine-pool counters (zero before Provision).
func (s *Sim) PoolStats() sparc.PoolStats {
	if s.pool == nil {
		return sparc.PoolStats{}
	}
	return s.pool.Stats()
}

// Execute runs one dataset against the testbed: a lease of one.
func (s *Sim) Execute(slot Slot, ds testgen.Dataset, spec RunSpec) Result {
	return s.ExecuteBatch(slot, []testgen.Dataset{ds}, spec)[0]
}

// ExecuteBatch runs a lease of datasets while holding one slot. Every
// test boots a fresh incarnation from power-on state: between tests the
// machine rewinds in-slot, the same Reset a pool round-trip applies, and
// the testbed kernel is recycled in place rather than rebuilt. The
// kernel is the one parked on the slot's machine by its last lease; a
// machine without one (newly allocated) gets a newly built system. At
// the end of the lease the kernel is parked on the machine again, so it
// leaves with the machine when the pool discards it. A machine the
// in-slot rewind cannot certify is replaced through the pool, exactly as
// a round-trip would have replaced it, and the kernel is re-pointed at
// the replacement. Results are byte-identical to a loop of Execute calls
// with pool round-trips in between. Once Config.Ctx is done, the tests
// after the one in hand come back Aborted with the context's error; a
// lease of one (Execute) never aborts.
func (s *Sim) ExecuteBatch(slot Slot, batch []testgen.Dataset, spec RunSpec) []Result {
	out := make([]Result, len(batch))
	sl, _ := slot.(*simSlot)
	if sl == nil || sl.m == nil {
		for i, ds := range batch {
			out[i] = simRunErr(ds, errNoMachine)
		}
		return out
	}
	// Take the parked kernel off the machine while it runs, so a
	// mid-lease replacement cannot Put it away with the old machine.
	k, _ := sl.m.Host().(*xm.Kernel)
	sl.m.SetHost(nil)
	var opts []xm.Option // rebuilt only when the machine or sink changes
	for i, ds := range batch {
		if i > 0 && s.cfg.Ctx != nil && s.cfg.Ctx.Err() != nil {
			for j := i; j < len(batch); j++ {
				out[j] = Result{Dataset: batch[j], RunErr: s.cfg.Ctx.Err().Error(), Aborted: true}
			}
			break
		}
		if i > 0 && sl.Restore() != nil {
			// Rewind refused (an invariant failure): replace the machine
			// through the pool's discard path.
			s.pool.Put(sl.m)
			sl.m = s.pool.Get()
			opts = nil
		}
		var cov *cover.Map
		if spec.Coverage {
			cov = &cover.Map{}
			opts = nil // the sink is per test
		}
		if opts == nil {
			opts = s.sysOptions(sl.m, spec, cov)
		}
		if k == nil {
			var err error
			if k, err = eagleeye.NewSystem(opts...); err != nil {
				out[i] = simRunErr(ds, err)
				continue
			}
		} else {
			k.Recycle(opts...)
			if err := eagleeye.AttachOBSW(k); err != nil {
				out[i] = simRunErr(ds, err)
				k = nil
				continue
			}
		}
		out[i] = s.runOn(k, cov, ds, spec)
	}
	if k != nil {
		sl.m.SetHost(k)
	}
	return out
}

// simRunErr is the log of a test the harness could not run.
func simRunErr(ds testgen.Dataset, err error) Result {
	return Result{Dataset: ds, TestPartition: eagleeye.FDIR, Target: SimName, RunErr: err.Error()}
}

// sysOptions assembles the construction (or recycle) options for one
// test: the campaign's fault set, the slot's machine, and the per-test
// coverage sink when coverage is on.
func (s *Sim) sysOptions(m *sparc.Machine, spec RunSpec, cov *cover.Map) []xm.Option {
	opts := make([]xm.Option, 0, 3)
	opts = append(opts, xm.WithFaults(spec.Faults), xm.WithMachine(m))
	if cov != nil {
		opts = append(opts, xm.WithCoverage(cov))
	}
	return opts
}

// layoutFor builds the symbolic-value resolution layout of the EagleEye
// test partition.
func layoutFor(k *xm.Kernel) (dict.Layout, error) {
	data, ok := k.PartitionDataArea(eagleeye.FDIR)
	if !ok {
		return dict.Layout{}, fmt.Errorf("target: test partition has no data area")
	}
	other, ok := k.PartitionDataArea(eagleeye.Platform)
	if !ok {
		return dict.Layout{}, fmt.Errorf("target: no other-partition area")
	}
	mc := k.Machine().Config()
	return dict.Layout{
		DataArea:  data,
		OtherArea: other,
		Kernel:    mc.RAMBase, // the hypervisor image sits at the RAM base
		ROM:       mc.ROMBase + 0x100,
		IO:        mc.IOBase,
	}, nil
}

// testProg is the test partition program: one fault placeholder invoked
// once per scheduling slot (and hence at least once per major frame).
type testProg struct {
	nr   xm.Nr
	args []uint64

	invocations int
	returns     []xm.RetCode
}

func (p *testProg) Boot(env xm.Env) {}

func (p *testProg) Step(env xm.Env) bool {
	p.invocations++
	ret := env.Hypercall(p.nr, p.args...)
	p.returns = append(p.returns, ret)
	return false
}

// runOn drives one dataset on a newly built or recycled testbed system:
// drive the system into the dataset's phantom state (when it names one —
// §V extension), arm the fault placeholder in the FDIR partition, run
// the observation frames and harvest the log. The kernel must have run
// no frames, its machine at power-on, with the OBSW attached and the
// right fault set and coverage sink already wired in.
func (s *Sim) runOn(k *xm.Kernel, cov *cover.Map, ds testgen.Dataset, spec RunSpec) Result {
	res := Result{Dataset: ds, TestPartition: eagleeye.FDIR, Target: SimName, Cover: cov}

	hc, ok := xm.LookupName(ds.Func.Name)
	if !ok {
		res.RunErr = fmt.Sprintf("target: hypercall %q not in kernel ABI", ds.Func.Name)
		return res
	}
	st, err := stateFor(ds)
	if err != nil {
		res.RunErr = err.Error()
		return res
	}
	layout, err := layoutFor(k)
	if err != nil {
		res.RunErr = err.Error()
		return res
	}
	resolved := make([]dict.Resolved, 0, len(ds.Values))
	args := make([]uint64, 0, len(ds.Values))
	for _, v := range ds.Values {
		r, err := layout.Resolve(v)
		if err != nil {
			res.RunErr = err.Error()
			return res
		}
		resolved = append(resolved, r)
		args = append(args, r.Bits)
	}
	res.Resolved = resolved

	if st != nil {
		if st.setup != nil {
			if err := st.setup(k); err != nil {
				res.RunErr = err.Error()
				return res
			}
		}
		if st.warmupFrames > 0 {
			if err := k.RunMajorFrames(st.warmupFrames); err != nil {
				res.RunErr = fmt.Sprintf("target: phantom-state warm-up: %v", err)
				return res
			}
		}
	}
	if spec.Inject != nil {
		spec.Inject.PreArm(k, eagleeye.FDIR)
	}

	prog := &testProg{nr: hc.Nr, args: args}
	if err := k.AttachProgram(eagleeye.FDIR, prog); err != nil {
		res.RunErr = err.Error()
		return res
	}
	if spec.Stress {
		preloadStress(k)
	}

	var runErr error
	for i := 0; i < spec.MAFs; i++ {
		if spec.Inject != nil {
			spec.Inject.BeforeFrame(i, spec.MAFs, k, eagleeye.FDIR)
		}
		if runErr = k.RunMajorFrames(1); runErr != nil {
			break
		}
	}
	if spec.Inject != nil {
		spec.Inject.PostRun(k, eagleeye.FDIR, spec.MAFs)
	}
	switch runErr {
	case nil, xm.ErrHalted:
		// Kernel halt is an observed outcome, not a harness error.
	default:
		if _, isCrash := runErr.(sparc.ErrCrashed); !isCrash {
			res.RunErr = runErr.Error()
		}
	}

	res.Invocations = prog.invocations
	res.Returns = prog.returns
	kst := k.Status()
	res.KernelState = kst.State
	res.KernelHalt = kst.HaltDetail
	res.ColdResets = kst.ColdResets
	res.WarmResets = kst.WarmResets
	res.HMEvents = k.HMEntries()
	if ps, ok := k.PartitionStatus(eagleeye.FDIR); ok {
		res.PartState = ps.State
		res.PartDetail = ps.HaltDetail
	}
	res.SimCrashed, res.CrashReason = k.Machine().Crashed()
	return res
}

// stateFor resolves a dataset's named phantom state ("" means nominal —
// no state phase).
func stateFor(ds testgen.Dataset) (*PhantomState, error) {
	if ds.State == "" || ds.State == "nominal" {
		return nil, nil
	}
	for _, st := range PhantomStates() {
		if st.Name == ds.State {
			return &st, nil
		}
	}
	return nil, fmt.Errorf("target: unknown phantom state %q", ds.State)
}

// preloadStress drives the testbed into a loaded state before the test
// call fires: several frames of OBSW traffic with nobody draining the
// downlink queue, leaving IPC buffers full.
func preloadStress(k *xm.Kernel) {
	// The FDIR slot already hosts the test program (which injects during
	// the warm-up too — its first invocations run under stress); what
	// matters is that the producers have saturated the channels.
	_ = k.RunMajorFrames(1)
}
