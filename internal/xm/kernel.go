package xm

import (
	"errors"
	"fmt"

	"xmrobust/internal/cover"
	"xmrobust/internal/sparc"
)

// KState is the hypervisor execution state.
type KState int

// Kernel states.
const (
	KStateRunning KState = iota
	KStateHalted
)

func (s KState) String() string {
	if s >= 0 && int(s) < len(kStateNames) {
		return kStateNames[s]
	}
	return "HALTED"
}

// KernelStatus is the host-side snapshot of the hypervisor, the source of
// the "separation kernel health specifics" the campaign logs per test.
type KernelStatus struct {
	State       KState
	ColdResets  uint32
	WarmResets  uint32
	MAFCount    uint64
	CurrentPlan int
	HMEvents    uint32
	HaltDetail  string
}

// slotCtx is the execution context of the partition currently holding the
// processor.
type slotCtx struct {
	p      *Partition
	start  Time
	budget Time
	used   Time
	// overrun latches when used exceeds budget mid-service (the
	// temporal-isolation violation of paper MSC-3).
	overrun        bool
	overrunDetail  string
	overrunHandled bool
}

// remaining returns the slot budget left.
func (sc *slotCtx) remaining() Time {
	if sc.used >= sc.budget {
		return 0
	}
	return sc.budget - sc.used
}

// guestStop is the panic payload used to model "control does not return to
// the guest": partition halted/suspended/reset mid-hypercall, system reset,
// hypervisor halt, or simulator crash. It never escapes the scheduler.
type guestStop struct{ reason string }

// bootCost is the virtual time a partition incarnation spends booting.
const bootCost Time = 10

// Kernel is the separation kernel instance: it owns the machine, enforces
// the cyclic schedule and spatial separation, and serves hypercalls.
type Kernel struct {
	machine *sparc.Machine
	cfg     Config
	faults  FaultSet
	hm      *healthMonitor

	parts    []*Partition
	ports    []*port
	channels []*channel

	curPlan  int
	nextPlan int
	mafCount uint64

	state      KState
	haltDetail string

	coldResets uint32
	warmResets uint32
	// pendingSysReset is latched by XM_reset_system (or an HM action) and
	// applied at the end of the current slot.
	pendingSysReset bool
	pendingSysCold  bool

	// cur is the active slot context while a partition executes.
	cur *slotCtx

	// hypercallCount counts dispatched hypercalls (diagnostics).
	hypercallCount uint64

	// cover is the optional edge-coverage sink (see coverage.go); nil
	// keeps the kernel uninstrumented. coverNr is the hypercall being
	// dispatched, for attributing HM events to the service that raised
	// them (0 outside any dispatch).
	cover   *cover.Map
	coverNr Nr

	// envs is the slot-environment arena: runSlot takes envs[nenv] and
	// advances nenv, and Recycle rewinds nenv to 0 (see newSlotEnv).
	envs []*slotEnv
	nenv int

	// guest is what guest software parked on the kernel (see Guest).
	guest any
}

// Option configures a Kernel at construction.
type Option func(*Kernel)

// WithFaults selects the vulnerability set (default LegacyFaults).
func WithFaults(f FaultSet) Option { return func(k *Kernel) { k.faults = f } }

// WithMachine supplies a pre-built machine (default: NewDefaultMachine).
func WithMachine(m *sparc.Machine) Option { return func(k *Kernel) { k.machine = m } }

// New boots a kernel from the static configuration. The configuration is
// validated; partitions start in the BOOT state and begin executing when
// RunMajorFrames schedules them.
func New(cfg Config, opts ...Option) (*Kernel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("xm: %w", err)
	}
	k := &Kernel{cfg: cfg, faults: LegacyFaults(), nextPlan: -1}
	for _, o := range opts {
		o(k)
	}
	if k.machine == nil {
		k.machine = sparc.NewDefaultMachine()
	}
	k.hm = newHealthMonitor(cfg.HMActions)
	for _, pc := range cfg.Partitions {
		k.parts = append(k.parts, newPartition(pc))
	}
	for i := range cfg.Channels {
		k.channels = append(k.channels, newChannel(cfg.Channels[i]))
	}
	for _, p := range k.parts {
		p.reset(true)
	}
	return k, nil
}

// Recycle returns the kernel to the state New left it in without
// reallocating its object graph: partitions go back to BOOT with fresh
// incarnation counters and rebuilt address spaces, channels and ports
// clear, the health-monitor log and counters wipe, the slot-environment
// arena rewinds, and scheduling restarts at plan 0, MAF 0. Attached
// programs are detached — reattach guest software before running
// frames. What guest software parked with SetGuest stays.
//
// The kernel takes m as its machine, faults as its fault set and cov as
// its coverage sink (nil: off), as New takes them through WithMachine,
// WithFaults and WithCoverage. Recycle never writes to the machine: the
// caller owns machine state (Reset it to power-on, the state a newly
// constructed kernel finds, since construction never writes to the
// machine).
//
// A recycled kernel is indistinguishable from a freshly constructed one
// by guests and by every accessor: the sim target leans on that to run
// every test on the kernel its machine ran last.
func (k *Kernel) Recycle(m *sparc.Machine, faults FaultSet, cov *cover.Map) {
	k.machine, k.faults = m, faults
	k.cover, k.coverNr = cov, 0
	k.curPlan, k.nextPlan = 0, -1
	k.mafCount = 0
	k.state = KStateRunning
	k.haltDetail = ""
	k.coldResets, k.warmResets = 0, 0
	k.pendingSysReset, k.pendingSysCold = false, false
	k.cur = nil
	k.hypercallCount = 0
	k.nenv = 0
	k.hm.recycle()
	k.ports = k.ports[:0]
	for _, ch := range k.channels {
		ch.reset()
	}
	for _, p := range k.parts {
		p.program = nil
		p.bootCount = 0
		p.reset(true)
		// The fault-injection "mmu" site flips bits in the space's region
		// descriptors; rebuilding restores the configured layout
		// unconditionally rather than trusting the last test's history.
		p.rebuildSpace()
	}
}

// Guest returns what SetGuest parked on the kernel (nil if nothing).
// Recycle keeps it, so guest software can park the state its programs
// run in and reuse it when it reattaches them to the recycled kernel.
func (k *Kernel) Guest() any { return k.guest }

// SetGuest parks g on the kernel (see Guest).
func (k *Kernel) SetGuest(g any) { k.guest = g }

// Machine returns the underlying machine.
func (k *Kernel) Machine() *sparc.Machine { return k.machine }

// Config returns the static configuration.
func (k *Kernel) Config() Config { return k.cfg }

// Faults returns the active fault set.
func (k *Kernel) Faults() FaultSet { return k.faults }

// Status snapshots the hypervisor state.
func (k *Kernel) Status() KernelStatus {
	return KernelStatus{
		State: k.state, ColdResets: k.coldResets, WarmResets: k.warmResets,
		MAFCount: k.mafCount, CurrentPlan: k.curPlan,
		HMEvents: k.hm.seq, HaltDetail: k.haltDetail,
	}
}

// PartitionStatus snapshots partition id.
func (k *Kernel) PartitionStatus(id int) (PartitionStatus, bool) {
	if id < 0 || id >= len(k.parts) {
		return PartitionStatus{}, false
	}
	return k.parts[id].status(), true
}

// NumPartitions returns the number of configured partitions.
func (k *Kernel) NumPartitions() int { return len(k.parts) }

// HMEntries returns a copy of the health-monitor log.
func (k *Kernel) HMEntries() []HMLogEntry { return k.hm.entries() }

// HypercallCount returns the number of hypercalls dispatched since boot.
func (k *Kernel) HypercallCount() uint64 { return k.hypercallCount }

// AttachProgram hosts guest software in partition id.
func (k *Kernel) AttachProgram(id int, prog Program) error {
	if id < 0 || id >= len(k.parts) {
		return fmt.Errorf("xm: no partition %d", id)
	}
	k.parts[id].program = prog
	return nil
}

// ProgramOf returns the guest software hosted in partition id (nil when
// the partition is empty or unknown). Test harnesses use it to read state
// back out of their programs.
func (k *Kernel) ProgramOf(id int) Program {
	if id < 0 || id >= len(k.parts) {
		return nil
	}
	return k.parts[id].program
}

// PartitionDataArea returns the first writable memory area of partition id
// — where the fuzz harness places guest-side test buffers.
func (k *Kernel) PartitionDataArea(id int) (sparc.Region, bool) {
	if id < 0 || id >= len(k.parts) {
		return sparc.Region{}, false
	}
	return k.parts[id].dataArea()
}

// PartitionSpace returns partition id's MMU view (nil when the id is not
// configured) — the injection surface for single-event upsets in the MMU
// context. A partition reset rebuilds the space from the static
// configuration, clearing any upset, as a real context reload would.
func (k *Kernel) PartitionSpace(id int) *sparc.Space {
	if id < 0 || id >= len(k.parts) {
		return nil
	}
	return k.parts[id].space
}

// WriteGuest writes into a partition's space from the host harness,
// enforcing the partition's own access rights.
func (k *Kernel) WriteGuest(id int, addr sparc.Addr, data []byte) error {
	if id < 0 || id >= len(k.parts) {
		return fmt.Errorf("xm: no partition %d", id)
	}
	if tr := k.parts[id].space.Check(addr, uint32(len(data)), sparc.PermWrite); tr != nil {
		return tr
	}
	if tr := k.machine.Write(addr, data); tr != nil {
		return tr
	}
	return nil
}

// ReadGuest reads from a partition's space from the host harness.
func (k *Kernel) ReadGuest(id int, addr sparc.Addr, size uint32) ([]byte, error) {
	if id < 0 || id >= len(k.parts) {
		return nil, fmt.Errorf("xm: no partition %d", id)
	}
	if tr := k.parts[id].space.Check(addr, size, sparc.PermRead); tr != nil {
		return nil, tr
	}
	data, tr := k.machine.Read(addr, size)
	if tr != nil {
		return nil, tr
	}
	return data, nil
}

// ErrHalted is returned by RunMajorFrames when the hypervisor halted
// (XM_halt_system or a fatal health-monitor action).
var ErrHalted = errors.New("xm: hypervisor halted")

// RunMajorFrames executes n complete major frames of the active scheduling
// plan. It returns nil on normal completion, ErrHalted if the hypervisor
// halted, or sparc.ErrCrashed if the simulator died.
func (k *Kernel) RunMajorFrames(n int) error {
	for i := 0; i < n; i++ {
		if err := k.runMajorFrame(); err != nil {
			return err
		}
		if k.state != KStateRunning {
			return ErrHalted
		}
	}
	return nil
}

func (k *Kernel) runMajorFrame() error {
	plan := k.cfg.Plans[k.curPlan]
	base := k.machine.Now()
	for _, slot := range plan.Slots {
		if err := k.machine.AdvanceTo(base + slot.Start); err != nil {
			return err
		}
		if k.state != KStateRunning {
			return nil
		}
		if err := k.runSlot(slot, base); err != nil {
			return err
		}
		if k.pendingSysReset {
			k.applySystemReset()
			return nil // frame abandoned; scheduling restarts next frame
		}
		if k.state != KStateRunning {
			return nil
		}
	}
	if err := k.machine.AdvanceTo(base + plan.MajorFrame); err != nil {
		return err
	}
	k.mafCount++
	if k.nextPlan >= 0 {
		k.curPlan = k.nextPlan
		k.nextPlan = -1
	}
	return nil
}

// slotEnv bundles a slot context with its guest environment.
type slotEnv struct {
	sc  slotCtx
	env guestEnv
}

// maxSlotEnvs bounds the slot-environment arena: 50 major frames of the
// EagleEye plan. Slots past it in one test get environments the arena
// does not keep, so a long run holds no more than this many.
const maxSlotEnvs = 250

// newSlotEnv hands out a slot environment, from the arena while it
// lasts. Each slot of a test gets one of its own: guest runtimes retain
// their boot-time environment, and that environment must keep observing
// its own slot for as long as the incarnation lives, so an environment
// is reused only by a later test, after Recycle.
func (k *Kernel) newSlotEnv() *slotEnv {
	if k.nenv == len(k.envs) {
		if len(k.envs) == maxSlotEnvs {
			return new(slotEnv)
		}
		k.envs = append(k.envs, new(slotEnv))
	}
	se := k.envs[k.nenv]
	k.nenv++
	return se
}

func (k *Kernel) runSlot(slot SlotConfig, base Time) error {
	p := k.parts[slot.PartitionID]
	se := k.newSlotEnv()
	*se = slotEnv{sc: slotCtx{p: p, start: base + slot.Start, budget: slot.Duration}}
	sc, env := &se.sc, &se.env
	env.k, env.sc = k, sc
	k.cur = sc
	defer func() { k.cur = nil }()

	if p.state == PStateBoot && p.program != nil {
		// The partition enters NORMAL mode as it boots, so boot code may
		// already invoke hypercalls (create ports, arm timers).
		p.state = PStateNormal
		p.booted = true
		k.charge(bootCost)
		k.guardedBoot(p.program, env)
	}
	for p.state == PStateNormal && k.state == KStateRunning && !k.pendingSysReset {
		if p.program == nil {
			break
		}
		if sc.remaining() <= 0 {
			break
		}
		before := sc.used
		cont := k.guardedStep(p.program, env)
		if sc.used == before {
			// A step always consumes at least 1µs of the slot: guest code
			// cannot execute in zero time.
			k.charge(1)
		}
		if err := k.sync(sc); err != nil {
			return err
		}
		k.handleOverrun(sc)
		if !cont {
			break
		}
	}
	// The slot always runs to its end: partitions never donate time.
	if err := k.machine.AdvanceTo(sc.start + sc.budget); err != nil {
		return err
	}
	return nil
}

// guarded runs guest code, absorbing the guestStop control-flow panic.
func (k *Kernel) guarded(f func()) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(guestStop); ok {
				return
			}
			panic(r)
		}
	}()
	f()
}

// guardedBoot runs a program's Boot hook under the guestStop guard,
// without the closure allocation of guarded.
func (k *Kernel) guardedBoot(prog Program, env Env) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(guestStop); ok {
				return
			}
			panic(r)
		}
	}()
	prog.Boot(env)
}

// guardedStep runs one program step under the guestStop guard. A step
// aborted by guestStop reports cont=true, exactly as the closure-based
// form left the flag untouched — the scheduler's loop conditions decide
// whether the partition keeps running.
func (k *Kernel) guardedStep(prog Program, env Env) (cont bool) {
	cont = true
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(guestStop); ok {
				return
			}
			panic(r)
		}
	}()
	return prog.Step(env)
}

// charge burns d microseconds of the current slot. Running past the budget
// is not by itself a violation — guest compute is simply preempted at the
// slot boundary. A temporal-isolation violation is declared only by
// non-preemptible kernel services (see XM_multicall) via declareOverrun.
func (k *Kernel) charge(d Time) {
	if sc := k.cur; sc != nil {
		sc.used += d
		sc.p.execClock += d
	}
}

// declareOverrun latches a temporal-isolation violation on the current
// slot: kernel-service work exceeded the slot budget and the scheduler
// could not context-switch on time.
func (k *Kernel) declareOverrun(detail string) {
	if sc := k.cur; sc != nil && !sc.overrun {
		sc.overrun = true
		sc.overrunDetail = detail
	}
}

// sync advances the machine clock to the partition's current position in
// its slot, firing any due hardware timers, then delivers due exec-clock
// timers.
func (k *Kernel) sync(sc *slotCtx) error {
	pos := sc.used
	if pos > sc.budget {
		pos = sc.budget
	}
	if err := k.machine.AdvanceTo(sc.start + pos); err != nil {
		return err
	}
	k.processExecTimers(sc.p)
	return nil
}

// handleOverrun reports a latched slot overrun to the health monitor once.
func (k *Kernel) handleOverrun(sc *slotCtx) {
	if !sc.overrun || sc.overrunHandled {
		return
	}
	sc.overrunHandled = true
	k.covKernel(coverKernelSlotOverrun)
	k.raiseHM(HMEvSchedOverrun, sc.p, sc.overrunDetail)
}

// halt stops the hypervisor.
func (k *Kernel) halt(detail string) {
	if k.state == KStateRunning {
		k.state = KStateHalted
		k.haltDetail = detail
		k.machine.Timer(0).Disarm()
		k.covKernel(coverKernelHalt)
	}
}

// requestSystemReset latches a system reset to apply at slot end.
func (k *Kernel) requestSystemReset(cold bool) {
	k.pendingSysReset = true
	k.pendingSysCold = cold
}

// applySystemReset reboots the hypervisor in place: partitions restart,
// ports close, the initial plan is restored. A cold reset also clears the
// health-monitor history and partition clocks; a warm reset preserves them
// for post-mortem reading (as the XM user manual specifies).
func (k *Kernel) applySystemReset() {
	cold := k.pendingSysCold
	k.pendingSysReset = false
	if cold {
		k.coldResets++
		k.covKernel(coverKernelColdReset)
	} else {
		k.warmResets++
		k.covKernel(coverKernelWarmReset)
	}
	k.hm.reset(cold)
	// Truncate rather than drop: the parked port structs are reused by
	// the next incarnation's create calls (see portSlot).
	k.ports = k.ports[:0]
	for _, ch := range k.channels {
		ch.reset()
	}
	for _, p := range k.parts {
		p.reset(cold)
	}
	k.curPlan = 0
	k.nextPlan = -1
	k.machine.Timer(0).Disarm()
}

// raiseHM records a health-monitor event and applies the configured action.
// p names the offending partition; nil means kernel scope.
func (k *Kernel) raiseHM(ev HMEvent, p *Partition, detail string) HMAction {
	pid := -1
	if p != nil {
		pid = p.ID()
	}
	action := k.hm.record(k.machine.Now(), ev, p == nil, pid, detail)
	if k.cover != nil {
		k.cover.Hit(CoverSiteHM(k.coverNr, ev, action))
	}
	switch action {
	case HMActHaltPartition:
		if p != nil {
			p.halt(detail)
		}
	case HMActSuspendPartition:
		if p != nil {
			p.suspend(detail)
		}
	case HMActColdResetPartition:
		if p != nil {
			p.reset(true)
		}
	case HMActWarmResetPartition:
		if p != nil {
			p.reset(false)
		}
	case HMActHaltHypervisor:
		k.halt(detail)
	case HMActColdResetHypervisor:
		k.requestSystemReset(true)
	case HMActWarmResetHypervisor:
		k.requestSystemReset(false)
	case HMActPropagate:
		if p != nil {
			p.raiseVIRQ(31) // virtual trap line
		}
	}
	return action
}

// --- virtual timer machinery -------------------------------------------

// armHwTimer programs partition p's hardware-clock virtual timer and
// reprograms the physical timer unit.
func (k *Kernel) armHwTimer(p *Partition, expiry, interval Time) {
	p.timers[0] = vTimer{armed: true, expiry: expiry, interval: interval}
	k.reprogramHwTimer()
}

// reprogramHwTimer points the physical unit at the earliest armed virtual
// expiry.
func (k *Kernel) reprogramHwTimer() {
	earliest := Time(0)
	found := false
	for _, p := range k.parts {
		t := p.timers[0]
		if t.armed && (!found || t.expiry < earliest) {
			earliest, found = t.expiry, true
		}
	}
	if !found {
		k.machine.Timer(0).Disarm()
		return
	}
	k.machine.Timer(0).Arm(earliest, k.hwTimerFired)
}

// hwTimerFired is the kernel's timer trap handler for the hardware clock.
// A periodic interval below timerHandlerLatency means the next expiry is
// already in the past when the handler re-arms it ("the next execution
// time is always expired by the time it is checked"), so the handler
// re-enters itself and the kernel stack overflows — paper issue TMR-1.
// Missed expiries of sane periodic timers are coalesced, as the real
// kernel's catch-up loop does.
func (k *Kernel) hwTimerFired(m *sparc.Machine, unit int, at Time) {
	if k.state != KStateRunning {
		return
	}
	now := m.Now()
	for _, p := range k.parts {
		t := &p.timers[0]
		if !t.armed || t.expiry > now {
			continue
		}
		t.fires++
		p.raiseVIRQ(vtimerVIRQ)
		switch {
		case t.interval > 0:
			if t.interval < timerHandlerLatency {
				t.armed = false
				k.covKernel(coverKernelTimerStorm)
				k.raiseHM(HMEvFatalError, nil,
					"kernel stack overflow: recursive timer handler (interval below handler latency)")
				return
			}
			t.expiry += t.interval
			if t.expiry <= now {
				t.expiry = now + t.interval
			}
		default:
			// One-shot, including the legacy negative-interval arm of
			// TMR-3: fire once, disarm.
			t.armed = false
		}
	}
	k.reprogramHwTimer()
}

// processExecTimers delivers due execution-clock timers for the running
// partition. On the execution clock the recursion does not stay inside the
// kernel: it races the context switch, and the paper observed the
// resulting timer trap killing the TSIM simulator itself (TMR-2), which
// the machine models as a crash.
func (k *Kernel) processExecTimers(p *Partition) {
	t := &p.timers[1]
	for t.armed && p.execClock >= t.expiry {
		t.fires++
		p.raiseVIRQ(vtimerVIRQ)
		if t.interval > 0 {
			if t.interval < timerHandlerLatency {
				t.armed = false
				k.covKernel(coverKernelExecCrash)
				k.machine.Crash("timer trap escaped the exec-clock handler; simulator aborted")
				return
			}
			t.expiry += t.interval
			if t.expiry <= p.execClock {
				t.expiry = p.execClock + t.interval
			}
		} else {
			t.armed = false
		}
	}
}
