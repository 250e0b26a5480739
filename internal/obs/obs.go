package obs

// Obs bundles the observability surfaces a campaign threads through the
// stack: the metrics registry, an optional trace-event stream, and the
// live progress tracker. A nil *Obs means "off" — every consumer
// derives nil-safe handles from it and pays one nil check per event.
type Obs struct {
	// Reg collects metrics for /metrics. Never nil on a New()-built Obs.
	Reg *Registry
	// Trace receives campaign/lease events. Nil: the engine creates one
	// next to the checkpoint shards when a shard dir is configured, and
	// closes it when the campaign returns; otherwise tracing is off. A
	// tracer set here stays its caller's: it writes events in batches,
	// and its Close writes the last of them.
	Trace *Tracer
	// Progress tracks done/total/outcomes for /progress and -progress.
	// Never nil on a New()-built Obs.
	Progress *Campaign
}

// New builds an Obs with a fresh registry and progress tracker (no
// tracer — see Obs.Trace).
func New() *Obs {
	return &Obs{Reg: NewRegistry(), Progress: NewCampaign()}
}

// Registry returns the metrics registry, nil when o is nil — the
// nil-safe accessor instrumented code uses so "obs off" needs no
// conditionals.
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Reg
}

// Prog returns the progress tracker, nil when o is nil.
func (o *Obs) Prog() *Campaign {
	if o == nil {
		return nil
	}
	return o.Progress
}

// EngineMetrics is the streaming engine's metric set. Built over a nil
// registry it carries nil handles, so every update degrades to one nil
// check.
type EngineMetrics struct {
	// Executed counts finished tests (xm_engine_tests_executed_total).
	Executed *Counter
	// BatchSize reports the resolved lease batch size
	// (xm_engine_batch_size).
	BatchSize *Gauge
	// EncodeNs observes per-record codec encode latency in nanoseconds
	// (xm_engine_encode_ns).
	EncodeNs *Histogram
}

// NewEngineMetrics registers the engine series.
func NewEngineMetrics(r *Registry) *EngineMetrics {
	return &EngineMetrics{
		Executed: r.Counter("xm_engine_tests_executed_total",
			"Tests the campaign engine has completed."),
		BatchSize: r.Gauge("xm_engine_batch_size",
			"Resolved lease batch size of the running campaign."),
		EncodeNs: r.Histogram("xm_engine_encode_ns",
			"Per-record codec encode latency in nanoseconds.",
			250, 500, 1000, 2500, 5000, 10000, 25000, 100000),
	}
}

// LeaseMetrics is the coordinator's metric set; the On* event methods
// are nil-safe so the coordinator holds a nil *LeaseMetrics when obs is
// off.
type LeaseMetrics struct {
	Issued      *Counter
	Completed   *Counter
	Outstanding *Gauge
}

// NewLeaseMetrics registers the lease series; nil registry gives nil
// (every On* then short-circuits).
func NewLeaseMetrics(r *Registry) *LeaseMetrics {
	if r == nil {
		return nil
	}
	return &LeaseMetrics{
		Issued: r.Counter("xm_lease_issued_total",
			"Leases the coordinator has issued."),
		Completed: r.Counter("xm_lease_completed_total",
			"Leases retired by their holder: executed, or skipped on a stop."),
		Outstanding: r.Gauge("xm_lease_outstanding",
			"Leases currently issued and uncompleted."),
	}
}

// OnIssue records a lease issuance.
func (m *LeaseMetrics) OnIssue() {
	if m == nil {
		return
	}
	m.Issued.Inc()
	m.Outstanding.Add(1)
}

// OnComplete records a lease completion.
func (m *LeaseMetrics) OnComplete() {
	if m == nil {
		return
	}
	m.Completed.Inc()
	m.Outstanding.Add(-1)
}

// RemoteMetrics is the remote client's metric set (the coordinating
// side of a remote: target).
type RemoteMetrics struct {
	Dials      *Counter
	DialErrors *Counter
	Retries    *Counter
	WireTx     *Counter
	WireRx     *Counter
}

// NewRemoteMetrics registers the remote-client series. Unlike the
// lease bundle it always returns a non-nil struct (with nil handles on
// a nil registry) because the client updates fields directly.
func NewRemoteMetrics(r *Registry) *RemoteMetrics {
	return &RemoteMetrics{
		Dials: r.CounterVec("xm_remote_dials_total",
			"Worker dial attempts by result.", "result").With("ok"),
		DialErrors: r.CounterVec("xm_remote_dials_total",
			"Worker dial attempts by result.", "result").With("error"),
		Retries: r.Counter("xm_remote_retries_total",
			"Exec attempts retried after a connection failure."),
		WireTx: r.CounterVec("xm_remote_wire_bytes_total",
			"Wire bytes moved by the remote client, by direction.", "dir").With("tx"),
		WireRx: r.CounterVec("xm_remote_wire_bytes_total",
			"Wire bytes moved by the remote client, by direction.", "dir").With("rx"),
	}
}

// WorkerMetrics is the worker server's metric set (the serving side of
// the wire protocol).
type WorkerMetrics struct {
	Executed    *Counter
	Connections *Gauge
	WireTx      *Counter
	WireRx      *Counter
}

// NewWorkerMetrics registers the worker-server series (non-nil struct,
// nil handles on a nil registry).
func NewWorkerMetrics(r *Registry) *WorkerMetrics {
	return &WorkerMetrics{
		Executed: r.Counter("xm_worker_tests_executed_total",
			"Tests this worker has executed for remote clients."),
		Connections: r.Gauge("xm_worker_connections",
			"Client connections currently open."),
		WireTx: r.CounterVec("xm_worker_wire_bytes_total",
			"Wire bytes moved by the worker, by direction.", "dir").With("tx"),
		WireRx: r.CounterVec("xm_worker_wire_bytes_total",
			"Wire bytes moved by the worker, by direction.", "dir").With("rx"),
	}
}

// InjectMetrics tallies fault-injection outcomes per site.
type InjectMetrics struct {
	outcomes *CounterVec
}

// NewInjectMetrics registers the injection series; nil registry gives
// nil (OnOutcome then short-circuits).
func NewInjectMetrics(r *Registry) *InjectMetrics {
	if r == nil {
		return nil
	}
	return &InjectMetrics{
		outcomes: r.CounterVec("xm_inject_outcomes_total",
			"Classified fault-injection outcomes by flip site.", "site", "outcome"),
	}
}

// OnOutcome tallies one classified injection.
func (m *InjectMetrics) OnOutcome(site, outcome string) {
	if m == nil {
		return
	}
	m.outcomes.With(site, outcome).Inc()
}
