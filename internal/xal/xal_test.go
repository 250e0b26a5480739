package xal

import (
	"testing"

	"xmrobust/internal/sparc"
	"xmrobust/internal/xm"
)

// harness boots a single-partition system hosting fn as its program body
// and runs one major frame.
func harness(t *testing.T, fn func(c *Ctx)) *xm.Kernel {
	t.Helper()
	area := sparc.Region{Name: "data", Base: 0x40100000, Size: 0x10000, Perm: sparc.PermRW}
	cfg := xm.Config{
		Name: "xal-test",
		Partitions: []xm.PartitionConfig{{
			ID: 0, Name: "XAL", System: true,
			MemoryAreas: []sparc.Region{area},
		}},
		Plans: []xm.PlanConfig{{ID: 0, MajorFrame: 100000, Slots: []xm.SlotConfig{
			{PartitionID: 0, Start: 0, Duration: 80000},
		}}},
		Channels: []xm.ChannelConfig{
			{Name: "loop", Type: xm.SamplingChannel, MaxMsgSize: 32, Source: 0, Destination: 0},
			{Name: "q", Type: xm.QueuingChannel, MaxMsgSize: 16, MaxNoMsgs: 2, Source: 0, Destination: 0},
		},
	}
	k, err := xm.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := false
	if err := k.AttachProgram(0, prog(func(env xm.Env) bool {
		if done {
			return false
		}
		done = true
		var c Ctx
		c.Init(env, area)
		fn(&c)
		return false
	})); err != nil {
		t.Fatal(err)
	}
	if err := k.RunMajorFrames(1); err != nil {
		t.Fatal(err)
	}
	return k
}

type prog func(env xm.Env) bool

func (p prog) Boot(env xm.Env)      {}
func (p prog) Step(env xm.Env) bool { return p(env) }

func TestAllocAlignmentAndExhaustion(t *testing.T) {
	harness(t, func(c *Ctx) {
		a := c.Alloc(3)
		b := c.Alloc(5)
		if a == 0 || b == 0 {
			t.Error("alloc failed")
		}
		if uint32(a)%8 != 0 || uint32(b)%8 != 0 {
			t.Errorf("allocations not 8-aligned: %#x %#x", a, b)
		}
		if b <= a {
			t.Error("allocator not monotonic")
		}
		// Exhaust the heap (upper half of a 64 KiB area = 32 KiB).
		if c.Alloc(0x8000) != 0 {
			t.Error("over-allocation succeeded")
		}
		c.ResetHeap()
		if c.Alloc(0x4000) == 0 {
			t.Error("allocation after ResetHeap failed")
		}
	})
}

func TestGetTimeAndSetTimer(t *testing.T) {
	harness(t, func(c *Ctx) {
		hw, rc := c.GetTime(xm.HwClock)
		if rc != xm.OK || hw < 0 {
			t.Errorf("GetTime(hw) = %d %v", hw, rc)
		}
		ex, rc := c.GetTime(xm.ExecClock)
		if rc != xm.OK || ex <= 0 {
			t.Errorf("GetTime(exec) = %d %v", ex, rc)
		}
		if _, rc := c.GetTime(7); rc != xm.InvalidParam {
			t.Errorf("GetTime(7) = %v", rc)
		}
		if rc := c.SetTimer(xm.HwClock, hw+5000, 0); rc != xm.OK {
			t.Errorf("SetTimer = %v", rc)
		}
	})
}

func TestPrintReachesConsole(t *testing.T) {
	k := harness(t, func(c *Ctx) {
		if rc := c.Printf("hello %d\n", 42); rc <= 0 {
			t.Errorf("Printf = %v", rc)
		}
		if rc := c.Print(""); rc != xm.NoAction {
			t.Errorf("empty Print = %v", rc)
		}
	})
	if got := k.Machine().UART().String(); got != "hello 42\n" {
		t.Fatalf("console = %q", got)
	}
}

func TestSamplingPortLoopback(t *testing.T) {
	harness(t, func(c *Ctx) {
		src, rc := c.CreateSamplingPort("loop", 32, xm.SourcePort)
		if rc != xm.OK {
			t.Fatalf("create source: %v", rc)
		}
		dst, rc := c.CreateSamplingPort("loop", 32, xm.DestinationPort)
		if rc != xm.OK {
			t.Fatalf("create dest: %v", rc)
		}
		if rc := src.WriteSampling([]byte("ping")); rc != xm.OK {
			t.Fatalf("write: %v", rc)
		}
		msg, rc := dst.ReadSampling(32)
		if rc != xm.OK || string(msg) != "ping" {
			t.Fatalf("read = %q %v", msg, rc)
		}
		if rc := dst.Close(); rc != xm.OK {
			t.Fatalf("close: %v", rc)
		}
	})
}

func TestQueuingPortLoopback(t *testing.T) {
	harness(t, func(c *Ctx) {
		src, rc := c.CreateQueuingPort("q", 2, 16, xm.SourcePort)
		if rc != xm.OK {
			t.Fatalf("create source: %v", rc)
		}
		dst, rc := c.CreateQueuingPort("q", 2, 16, xm.DestinationPort)
		if rc != xm.OK {
			t.Fatalf("create dest: %v", rc)
		}
		if rc := src.Send([]byte("a")); rc != xm.OK {
			t.Fatalf("send: %v", rc)
		}
		if rc := src.Send([]byte("b")); rc != xm.OK {
			t.Fatalf("send: %v", rc)
		}
		if rc := src.Send([]byte("c")); rc != xm.NotAvailable {
			t.Fatalf("send to full = %v", rc)
		}
		msg, rc := dst.Receive(16)
		if rc != xm.OK || string(msg) != "a" {
			t.Fatalf("receive = %q %v (FIFO)", msg, rc)
		}
	})
}

func TestCreatePortErrors(t *testing.T) {
	harness(t, func(c *Ctx) {
		if _, rc := c.CreateSamplingPort("nosuch", 32, xm.SourcePort); rc != xm.InvalidConfig {
			t.Errorf("unknown channel = %v", rc)
		}
		if _, rc := c.CreateSamplingPort("loop", 16, xm.SourcePort); rc != xm.InvalidConfig {
			t.Errorf("size mismatch = %v", rc)
		}
	})
}

func TestReadHMAndPartitionStatus(t *testing.T) {
	harness(t, func(c *Ctx) {
		if _, rc := c.ReadHM(0); rc != xm.NoAction {
			t.Errorf("ReadHM(0) = %v", rc)
		}
		if _, rc := c.ReadHM(4); rc != xm.NoAction {
			t.Errorf("ReadHM on empty log = %v", rc)
		}
		st, rc := c.GetPartitionStatus(0)
		if rc != xm.OK {
			t.Fatalf("GetPartitionStatus = %v", rc)
		}
		if st.ID != 0 || st.State != xm.PStateNormal || !st.System {
			t.Errorf("status = %+v", st)
		}
		if _, rc := c.GetPartitionStatus(9); rc != xm.InvalidParam {
			t.Errorf("bad id = %v", rc)
		}
	})
}

func TestTraceEventBinding(t *testing.T) {
	harness(t, func(c *Ctx) {
		var payload [16]byte
		copy(payload[:], "trace-me")
		if rc := c.TraceEvent(1, payload); rc != xm.OK {
			t.Errorf("TraceEvent = %v", rc)
		}
		if rc := c.TraceEvent(0, payload); rc != xm.NoAction {
			t.Errorf("TraceEvent(0) = %v", rc)
		}
	})
}

func TestResetPartitionBinding(t *testing.T) {
	k := harness(t, func(c *Ctx) {
		if rc := c.ResetPartition(0, xm.WarmReset); rc != xm.OK {
			t.Errorf("ResetPartition = %v", rc)
		}
		t.Error("control must not return after resetting oneself")
	})
	st, _ := k.PartitionStatus(0)
	if st.BootCount != 2 {
		t.Fatalf("BootCount = %d, want 2", st.BootCount)
	}
}
