package target

import (
	"fmt"
	"sync"

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

// Sim is the simulation backend: every test packs a fresh testbed onto a
// simulated LEON3 machine, recycled through a copy-on-write
// sparc.SnapshotPool, and runs the TSP system for the selected number of
// cyclic schedules — the paper's execution environment.
type Sim struct {
	cfg      Config
	pool     *sparc.SnapshotPool
	baseline *sparc.Snapshot

	// mRestores counts in-slot snapshot restores (batch rewinds and
	// composite-leg recycles); nil when obs is off.
	mRestores *obs.Counter

	// kernels parks each pooled machine's recycled testbed kernel between
	// batch leases, so system construction amortises across a campaign
	// rather than per lease. A parked kernel is always dirty — ExecuteBatch
	// recycles it before first use, the same in-place reset it applies
	// between the lease's own tests.
	mu      sync.Mutex
	kernels map[*sparc.Machine]*xm.Kernel
}

// NewSim builds the simulation backend.
func NewSim(cfg Config) *Sim {
	s := &Sim{cfg: cfg, baseline: sparc.PowerOnSnapshot(sparc.DefaultConfig())}
	s.mRestores = cfg.Obs.Registry().Counter("xm_sim_slot_restores_total",
		"In-slot snapshot restores (batch rewinds and composite-leg recycles).")
	return s
}

// Name returns "sim".
func (s *Sim) Name() string { return SimName }

// Provision sizes the machine pool to the campaign's worker parallelism.
// It is idempotent: a target shared across engine runs keeps its warm
// pool (and parked kernels) instead of dropping them on every campaign.
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
		"Acquires served by recycling a pooled machine (snapshot restores on the CoW pool).",
		func() float64 { return float64(pool.Stats().Reused) })
	r.CounterFunc("xm_pool_discarded_total",
		"Machines the pool refused to recycle (crashes, failed verification).",
		func() float64 { return float64(pool.Stats().Discarded) })
	r.CounterFunc("xm_pool_steals_total",
		"Acquires served from a free-list stripe other than the caller's home.",
		func() float64 { return float64(pool.Stats().Steals) })
	return nil
}

// simSlot is the sim backend's execution slot: the leased machine (nil
// before Provision — Execute then allocates fresh per test) and the
// restore point backing the SnapshotSlot capability.
type simSlot struct {
	owner *Sim
	m     *sparc.Machine
	snap  *sparc.Snapshot
}

// Machine exposes the slot's leased machine (nil before Provision).
func (sl *simSlot) Machine() *sparc.Machine { return sl.m }

// Snapshot captures the slot's current machine state as its restore
// point.
func (sl *simSlot) Snapshot() error {
	if sl.m == nil {
		return fmt.Errorf("target: slot holds no machine to snapshot")
	}
	sl.snap = sl.m.Snapshot()
	return nil
}

// Restore rewinds the slot's machine to the last captured restore point
// — the power-on baseline when none was captured. A crashed machine
// rewinds like any other. Power-on restores additionally pass the reset
// invariant check, so the restored state is exactly what a pool
// round-trip would have certified; a captured mid-run state is restored
// verbatim (its clock, console and devices are part of the capture, so
// the power-on invariants deliberately do not apply).
func (sl *simSlot) Restore() error {
	if sl.m == nil {
		return fmt.Errorf("target: slot holds no machine to restore")
	}
	sl.owner.mRestores.Inc()
	if sl.snap != nil {
		return sl.m.RestoreSnapshot(sl.snap)
	}
	if err := sl.m.RestoreSnapshot(sl.owner.baseline); err != nil {
		return err
	}
	return sl.m.VerifyReset()
}

// Acquire reserves an execution slot (its machine is nil before
// Provision — Execute then allocates a fresh one per test).
func (s *Sim) Acquire() Slot {
	sl := &simSlot{owner: s}
	if s.pool != nil {
		sl.m = s.pool.Get()
	}
	return sl
}

// Release returns a slot's machine to the pool.
func (s *Sim) Release(slot Slot) {
	if sl, _ := slot.(*simSlot); sl != nil && sl.m != nil {
		s.pool.Put(sl.m)
		sl.m = nil
	}
}

// takeKernel claims the kernel parked for m, removing it from the cache.
// It returns nil when no kernel is parked (a fresh or replaced machine).
func (s *Sim) takeKernel(m *sparc.Machine) *xm.Kernel {
	if m == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	k := s.kernels[m]
	if k != nil {
		delete(s.kernels, m)
	}
	return k
}

// parkKernel caches m's kernel for the machine's next lease. Machines the
// pool has discarded leave dead entries behind; the cap bounds that drift
// by restarting the cache, which only costs the next few leases a rebuild.
func (s *Sim) parkKernel(m *sparc.Machine, k *xm.Kernel) {
	if m == nil || k == nil {
		return
	}
	s.mu.Lock()
	if len(s.kernels) >= 32 {
		s.kernels = nil
	}
	if s.kernels == nil {
		s.kernels = make(map[*sparc.Machine]*xm.Kernel)
	}
	s.kernels[m] = k
	s.mu.Unlock()
}

// PoolStats reports the machine-pool counters (zero before Provision).
func (s *Sim) PoolStats() sparc.PoolStats {
	if s.pool == nil {
		return sparc.PoolStats{}
	}
	return s.pool.Stats()
}

// machineOf extracts the leased machine from a slot: the sim backend's
// own slot struct, or a bare machine handed in directly by embedders.
func machineOf(slot Slot) *sparc.Machine {
	switch v := slot.(type) {
	case *simSlot:
		return v.m
	case *sparc.Machine:
		return v
	}
	return nil
}

// ExecuteBatch runs a contiguous lease of datasets while holding one
// slot. Between tests the machine rewinds to the power-on baseline
// in-slot — the copy-on-write analogue of the pool's Put/Get round-trip
// — and the testbed kernel is recycled in place rather than rebuilt, so
// both the per-test verification baseline and the system construction
// cost amortise across the lease. Every test still boots a fresh
// incarnation from power-on state: results are byte-identical to a loop
// of Execute calls. A machine the in-slot rewind cannot certify is
// replaced through the pool, exactly as a round-trip would have
// replaced it, and the recycled kernel is re-pointed at the
// replacement.
func (s *Sim) ExecuteBatch(slot Slot, batch []testgen.Dataset, spec RunSpec) []Result {
	out := make([]Result, len(batch))
	sl, _ := slot.(*simSlot)
	if sl == nil || sl.m == nil {
		// No leased machine to rewind (unprovisioned, or a foreign
		// slot): fall back to the single-test path per dataset.
		for i, ds := range batch {
			out[i] = s.Execute(slot, ds, spec)
		}
		return out
	}
	k := s.takeKernel(sl.m) // parked dirty: recycled below before use
	var opts []xm.Option    // rebuilt only when the machine or sink changes
	for i, ds := range batch {
		if i > 0 {
			sl.snap = nil
			if sl.Restore() != nil {
				// Rewind refused (layout drift, invariant failure):
				// replace the machine through the pool's discard path.
				s.pool.Put(sl.m)
				sl.m = s.pool.Get()
				opts = nil
				if k == nil {
					k = s.takeKernel(sl.m)
				}
			}
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
				out[i] = Result{Dataset: ds, TestPartition: eagleeye.FDIR, Target: SimName, RunErr: err.Error()}
				continue
			}
		} else {
			k.Recycle(opts...)
			if err := eagleeye.AttachOBSW(k); err != nil {
				out[i] = Result{Dataset: ds, TestPartition: eagleeye.FDIR, Target: SimName, RunErr: err.Error()}
				k = nil
				continue
			}
		}
		out[i] = s.runOn(k, cov, ds, spec)
	}
	s.parkKernel(sl.m, k)
	return out
}

// sysOptions assembles the construction (or recycle) options for one
// test: the campaign's fault set, the slot's machine, and the per-test
// coverage sink when coverage is on.
func (s *Sim) sysOptions(m *sparc.Machine, spec RunSpec, cov *cover.Map) []xm.Option {
	opts := make([]xm.Option, 0, 3)
	opts = append(opts, xm.WithFaults(spec.Faults))
	if m != nil {
		opts = append(opts, xm.WithMachine(m))
	}
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

// Execute runs one dataset against the testbed: boot, drive the system
// into the dataset's phantom state (when it names one — §V extension),
// arm the fault placeholder in the FDIR partition, run the observation
// frames and harvest the log. The machine in the slot must be in its
// power-on state; the snapshot pool guarantees that. A slot without a
// machine runs on a newly allocated one.
func (s *Sim) Execute(slot Slot, ds testgen.Dataset, spec RunSpec) Result {
	var cov *cover.Map
	if spec.Coverage {
		cov = &cover.Map{}
	}
	k, err := eagleeye.NewSystem(s.sysOptions(machineOf(slot), spec, cov)...)
	if err != nil {
		return Result{Dataset: ds, TestPartition: eagleeye.FDIR, Target: SimName, RunErr: err.Error()}
	}
	return s.runOn(k, cov, ds, spec)
}

// runOn drives one dataset on an already-constructed (or recycled)
// testbed system: the kernel must be freshly built — no frames run, the
// machine at power-on — with the OBSW attached and the right fault set
// and coverage sink already wired in.
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
