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
// — the paper's execution environment. Every test takes its machine from
// a sparc.SnapshotPool, which rewinds it to power-on with Reset, whatever
// the lease it runs in, and each machine carries the testbed kernel of
// its last test (sparc.Machine.Host), which its next test recycles
// instead of rebuilding; the kernel keeps its slot environments and the
// OBSW state block across the recycle. So every test boots from a clean
// testbed, the way the paper boots TSIM for each one, and pays neither a
// machine allocation nor a system construction nor a rebuilt guest
// runtime.
type Sim struct {
	cfg  Config
	pool *sparc.SnapshotPool

	// mRestores counts in-slot machine rewinds between the legs of a
	// composite (inject:); nil when obs is off.
	mRestores *obs.Counter
}

// NewSim builds the simulation backend.
func NewSim(cfg Config) *Sim {
	s := &Sim{cfg: cfg}
	s.mRestores = cfg.Obs.Registry().Counter("xm_sim_slot_restores_total",
		"In-slot machine rewinds between a composite's legs (inject:).")
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
// when acquired before Provision) and the test program its tests run.
// It backs the SnapshotSlot capability.
type simSlot struct {
	owner *Sim
	m     *sparc.Machine
	prog  testProg
}

// Restore rewinds the slot's machine to power-on in place, crashed or
// not, and certifies it with the reset invariants: exactly the state a
// pool round-trip would hand out. Only the inject: composite uses it,
// between its clean and injected legs of one test; the tests of a lease
// each take a machine from the pool instead.
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

// ExecuteBatch runs a lease of datasets in one slot. Each test takes its
// machine from the pool exactly as a lease of one does: between two
// tests the slot's machine goes back to the pool, which discards a
// crashed one together with the kernel parked on it, and the next test
// takes a machine out of it, rewound to power-on and verified, audit
// included — what Release and Acquire do. So a lease of N tests makes N
// pool acquires, and what its tests share is the call, the slot and the
// result slice. Every test recycles the testbed kernel parked on its
// machine, keeping its slot environments and the OBSW state block; a
// machine without one (newly allocated) gets a newly built system, which
// is parked on it in turn. A test allocates little beyond what its
// Result keeps. Results are byte-identical to a loop of Execute calls
// with Release and Acquire in between. Once Config.Ctx is done, the
// tests after the one in hand come back Aborted with the context's
// error; a lease of one (Execute) never aborts.
func (s *Sim) ExecuteBatch(slot Slot, batch []testgen.Dataset, spec RunSpec) []Result {
	out := make([]Result, len(batch))
	sl, _ := slot.(*simSlot)
	if sl == nil || sl.m == nil {
		for i, ds := range batch {
			out[i] = simRunErr(ds, errNoMachine)
		}
		return out
	}
	for i, ds := range batch {
		if i > 0 {
			if s.cfg.Ctx != nil && s.cfg.Ctx.Err() != nil {
				for j := i; j < len(batch); j++ {
					out[j] = Result{Dataset: batch[j], RunErr: s.cfg.Ctx.Err().Error(), Aborted: true}
				}
				break
			}
			s.pool.Put(sl.m)
			sl.m = s.pool.Get()
		}
		out[i] = s.runTest(sl.m, &sl.prog, ds, spec)
	}
	return out
}

// runTest runs one dataset on m with the kernel parked on it, recycled
// in place, or on a newly built system that it parks there; a kernel
// the OBSW cannot attach to is unparked, not reused.
func (s *Sim) runTest(m *sparc.Machine, prog *testProg, ds testgen.Dataset, spec RunSpec) Result {
	var cov *cover.Map
	if spec.Coverage {
		cov = &cover.Map{}
	}
	k, _ := m.Host().(*xm.Kernel)
	if k == nil {
		var err error
		if k, err = eagleeye.NewSystem(xm.WithFaults(spec.Faults), xm.WithMachine(m), xm.WithCoverage(cov)); err != nil {
			return simRunErr(ds, err)
		}
		m.SetHost(k)
	} else {
		k.Recycle(m, spec.Faults, cov)
		if err := eagleeye.AttachOBSW(k); err != nil {
			m.SetHost(nil)
			return simRunErr(ds, err)
		}
	}
	return s.runOn(k, prog, cov, ds, spec)
}

// simRunErr is the log of a test the harness could not run.
func simRunErr(ds testgen.Dataset, err error) Result {
	return Result{Dataset: ds, TestPartition: eagleeye.FDIR, Target: SimName, RunErr: err.Error()}
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
	// argv backs args for hypercalls of up to four parameters, which
	// covers every hypercall of the kernel's ABI.
	argv [4]uint64

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
// §V extension), arm the fault placeholder prog in the FDIR partition,
// run the observation frames and harvest the log. The kernel must have
// run no frames, its machine at power-on, with the OBSW attached and the
// right fault set and coverage sink already wired in.
func (s *Sim) runOn(k *xm.Kernel, prog *testProg, cov *cover.Map, ds testgen.Dataset, spec RunSpec) Result {
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
	*prog = testProg{nr: hc.Nr}
	prog.args = prog.argv[:0]
	resolved := make([]dict.Resolved, 0, len(ds.Values))
	for _, v := range ds.Values {
		r, err := layout.Resolve(v)
		if err != nil {
			res.RunErr = err.Error()
			return res
		}
		resolved = append(resolved, r)
		prog.args = append(prog.args, r.Bits)
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
