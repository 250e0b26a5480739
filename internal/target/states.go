package target

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"xmrobust/internal/apispec"
	"xmrobust/internal/eagleeye"
	"xmrobust/internal/sparc"
	"xmrobust/internal/testgen"
	"xmrobust/internal/xm"
)

// PhantomState is one value of the "phantom parameter" of paper §V: the
// Ballista technique that extends the data type fault model to
// parameter-less hypercalls by varying the *system state* the call fires
// in instead of its (non-existent) arguments. "Phantom parameters could be
// used in this case to set the separation kernel into a particular
// stressful state before invoking the test calls."
type PhantomState struct {
	Name string
	Desc string
	// warmupFrames is how many major frames the setter runs before the
	// test partition is armed.
	warmupFrames int
	// setup mutates the freshly booted system (attaching setter programs,
	// arming timers) before the warm-up frames run.
	setup func(k *xm.Kernel) error
}

// PhantomStates returns the phantom-parameter value set of the extension
// campaign: the nominal state plus four loaded/degraded states.
func PhantomStates() []PhantomState {
	return []PhantomState{
		{
			Name: "nominal",
			Desc: "freshly booted system",
		},
		{
			Name:         "ipc-saturated",
			Desc:         "queuing channels full, sampling messages pending",
			warmupFrames: 3,
			setup: func(k *xm.Kernel) error {
				// With the FDIR consumer replaced by the (idle) setter,
				// three frames of OBSW traffic saturate the downlink
				// queue and leave fresh sampling messages everywhere.
				return k.AttachProgram(eagleeye.FDIR, idleProgram{})
			},
		},
		{
			Name:         "hm-backlog",
			Desc:         "health-monitor log loaded, one partition halted",
			warmupFrames: 2,
			setup: func(k *xm.Kernel) error {
				if err := k.AttachProgram(eagleeye.Payload, &rogueProgram{}); err != nil {
					return err
				}
				return k.AttachProgram(eagleeye.FDIR, idleProgram{})
			},
		},
		{
			Name:         "timer-armed",
			Desc:         "periodic 10ms virtual timer live on the hardware clock",
			warmupFrames: 1,
			setup: func(k *xm.Kernel) error {
				return k.AttachProgram(eagleeye.FDIR, armTimerProgram{})
			},
		},
		{
			Name:         "survival-plan",
			Desc:         "system switched to the degraded scheduling plan",
			warmupFrames: 1,
			setup: func(k *xm.Kernel) error {
				return k.AttachProgram(eagleeye.FDIR, switchPlanProgram{})
			},
		},
	}
}

// idleProgram occupies a partition without doing anything.
type idleProgram struct{}

func (idleProgram) Boot(env xm.Env)      {}
func (idleProgram) Step(env xm.Env) bool { env.Compute(100); return false }

// rogueProgram violates spatial separation once, loading the HM log.
type rogueProgram struct{ fired bool }

func (r *rogueProgram) Boot(env xm.Env) {}

func (r *rogueProgram) Step(env xm.Env) bool {
	if !r.fired {
		r.fired = true
		env.Write(sparc.DefaultRAMBase, []byte{1}) // hypervisor image: trap
	}
	return false
}

// armTimerProgram arms a sane periodic timer from the FDIR slot.
type armTimerProgram struct{}

func (armTimerProgram) Boot(env xm.Env) {}

func (armTimerProgram) Step(env xm.Env) bool {
	env.Hypercall(xm.NrSetTimer, uint64(xm.HwClock), uint64(env.Now()+5000), 10000)
	return false
}

// switchPlanProgram requests the survival plan (plan 1).
type switchPlanProgram struct{}

func (switchPlanProgram) Boot(env xm.Env) {}

func (switchPlanProgram) Step(env xm.Env) bool {
	area := sparc.DefaultRAMBase + sparc.Addr(0x100000*(eagleeye.FDIR+1))
	env.Hypercall(xm.NrSwitchSchedPlan, 1, uint64(area))
	return false
}

// --- the phantom plan ---------------------------------------------------

// StrategyPhantom is the plan-spec name of the §V extension suite.
const StrategyPhantom = "phantom"

// phantomPlan is the §V extension suite as an ordinary test plan: every
// parameter-less hypercall of the header crossed with every phantom
// state, addressed lazily like any other plan so the streaming engine,
// checkpoints and reports apply unchanged.
type phantomPlan struct {
	funcs  []apispec.Function
	states []PhantomState
	suite  []testgen.Matrix
	fp     string
}

// NewPhantomPlan builds the extension plan over the header's
// parameter-less hypercalls. They take no values, so no dictionary is
// involved.
func NewPhantomPlan(h *apispec.Header) (testgen.Plan, error) {
	p := &phantomPlan{states: PhantomStates()}
	hsh := sha256.New()
	for _, f := range h.Functions {
		if len(f.Params) != 0 {
			continue
		}
		p.funcs = append(p.funcs, f)
		p.suite = append(p.suite, testgen.Matrix{Func: f})
		fmt.Fprintf(hsh, "%s\n", f.Name)
	}
	if len(p.funcs) == 0 {
		return nil, fmt.Errorf("target: plan %q: header has no parameter-less hypercalls", StrategyPhantom)
	}
	for _, st := range p.states {
		fmt.Fprintf(hsh, "@%s\n", st.Name)
	}
	p.fp = StrategyPhantom + "/" + hex.EncodeToString(hsh.Sum(nil))[:16]
	return p, nil
}

func (p *phantomPlan) Strategy() string        { return StrategyPhantom }
func (p *phantomPlan) Len() int                { return len(p.funcs) * len(p.states) }
func (p *phantomPlan) Fingerprint() string     { return p.fp }
func (p *phantomPlan) Suite() []testgen.Matrix { return p.suite }

func (p *phantomPlan) At(i int) testgen.Dataset {
	return testgen.Dataset{
		Func:  p.funcs[i/len(p.states)],
		Index: i,
		State: p.states[i%len(p.states)].Name,
	}
}
