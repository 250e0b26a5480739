package main

import (
	"math"
	"slices"
	"time"
)

// metric declares one reported metric. Per-layer metrics also carry the
// prediction later changes state their claims against: the end-to-end
// metric a change to the layer should move, the workloads where the
// layer does most of the work, and the workloads where it does little
// or none (where the prediction for a change to it is "no change").
type metric struct {
	name, unit, better string
	moves, most, least string
}

// endToEnd is what a user of the system sees, reported by untraced
// runs. Every workload reports every metric; BENCHMARK.json fixes the
// regression bounds.
var endToEnd = []metric{
	{name: "tests_per_s", unit: "1/s", better: "higher"},
	{name: "campaign_ms_p50", unit: "ms", better: "lower"},
	{name: "campaign_ms_p90", unit: "ms", better: "lower"},
	{name: "first_record_ms_p50", unit: "ms", better: "lower"},
	{name: "first_record_ms_p90", unit: "ms", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "rss_p95_mb", unit: "MB", better: "lower"},
	{name: "cpu_us_per_test", unit: "us", better: "lower"},
}

// Workload groups of the prediction table.
const (
	allWorkloads = "paper-inmem, paper-stream, daemon-sse, remote-fleet"
	notFleet     = "paper-inmem, paper-stream, daemon-sse"
	notDaemon    = "paper-inmem, paper-stream, remote-fleet"
)

// perLayer is reported by traced runs. A workload whose campaign path
// never enters a layer reports that layer's metrics as 0.
var perLayer = []metric{
	{"target.acquire_us_per_test", "us", "lower", "campaign_ms_p50, tests_per_s, cpu_us_per_test", "paper-inmem", "remote-fleet (client side)"},
	{"target.execute_us_per_test", "us", "lower", "campaign_ms_p50, tests_per_s, cpu_us_per_test", "paper-inmem", "remote-fleet (client side)"},
	{"target.release_us_per_test", "us", "lower", "campaign_ms_p50, tests_per_s, cpu_us_per_test", "paper-inmem", "remote-fleet (client side)"},
	{"target.slots_per_test", "count", "lower", "campaign_ms_p50, tests_per_s, cpu_us_per_test", "paper-inmem", "remote-fleet (client side)"},

	{"sparc.machines_built_per_campaign", "count", "lower", "campaign_ms_p50, first_record_ms_p50, rss_p95_mb", "paper-inmem, daemon-sse", "remote-fleet (worker pools stay warm)"},
	{"sparc.pool_reuse_ratio", "ratio", "higher", "campaign_ms_p50, first_record_ms_p50, rss_p95_mb", "paper-inmem, daemon-sse", "remote-fleet (worker pools stay warm)"},
	{"sparc.pool_discards_per_campaign", "count", "lower", "campaign_ms_p50, first_record_ms_p50, rss_p95_mb", "paper-inmem, daemon-sse", "remote-fleet (worker pools stay warm)"},

	{"eagleeye.new_system_us", "us", "lower", "tests_per_s", "paper-inmem", "remote-fleet"},
	{"xm.major_frame_us", "us", "lower", "tests_per_s", "paper-inmem", "remote-fleet"},

	{"campaign.lease_issue_us_per_test", "us", "lower", "tests_per_s, campaign_ms_p50", "paper-stream", "paper-inmem"},
	{"campaign.to_record_us_per_test", "us", "lower", "tests_per_s, campaign_ms_p50", "paper-stream", "paper-inmem"},
	{"campaign.encode_us_per_test", "us", "lower", "tests_per_s, campaign_ms_p50", "paper-stream", "paper-inmem"},
	{"campaign.scan_ms_per_campaign", "ms", "lower", "tests_per_s, campaign_ms_p50", "paper-stream", "paper-inmem"},
	{"campaign.merge_ms_per_campaign", "ms", "lower", "tests_per_s, campaign_ms_p50", "paper-stream", "paper-inmem"},

	{"store.shard_write_us_per_test", "us", "lower", "tests_per_s, campaign_ms_p50", "paper-stream", "paper-inmem (no store)"},
	{"store.shard_writes_per_test", "count", "lower", "tests_per_s, campaign_ms_p50", "paper-stream", "paper-inmem (no store)"},
	{"store.shard_bytes_per_test", "B", "lower", "tests_per_s, campaign_ms_p50", "paper-stream", "paper-inmem (no store)"},
	{"store.checkpoint_append_us_per_test", "us", "lower", "tests_per_s, campaign_ms_p50", "paper-stream", "paper-inmem (no store)"},
	{"store.checkpoint_writes_per_test", "count", "lower", "tests_per_s, campaign_ms_p50", "paper-stream", "paper-inmem (no store)"},

	{"analysis.classify_us_per_test", "us", "lower", "campaign_ms_p50", "paper-inmem, paper-stream", "daemon-sse"},

	{"serve.submit_ms_p50", "ms", "lower", "first_record_ms_p50, first_record_ms_p90, campaign_ms_p50, campaign_ms_p90", "daemon-sse", notDaemon},
	{"serve.queue_wait_ms_p50", "ms", "lower", "first_record_ms_p50, first_record_ms_p90, campaign_ms_p50, campaign_ms_p90", "daemon-sse", notDaemon},
	{"serve.running_to_first_record_ms_p50", "ms", "lower", "first_record_ms_p50, first_record_ms_p90, campaign_ms_p50, campaign_ms_p90", "daemon-sse", notDaemon},
	{"serve.sse_events_per_test", "count", "lower", "first_record_ms_p50, first_record_ms_p90, campaign_ms_p50, campaign_ms_p90", "daemon-sse", notDaemon},
	{"serve.sse_bytes_per_test", "B", "lower", "first_record_ms_p50, first_record_ms_p90, campaign_ms_p50, campaign_ms_p90", "daemon-sse", notDaemon},
	{"serve.lagged_streams", "count", "lower", "first_record_ms_p50, first_record_ms_p90, campaign_ms_p50, campaign_ms_p90", "daemon-sse", notDaemon},

	{"remote.client_exec_us_per_test", "us", "lower", "tests_per_s, campaign_ms_p50, campaign_ms_p90", "remote-fleet", notFleet},
	{"remote.server_exec_us_per_test", "us", "lower", "tests_per_s, campaign_ms_p50, campaign_ms_p90", "remote-fleet", notFleet},
	{"remote.wire_us_per_test", "us", "lower", "tests_per_s, campaign_ms_p50, campaign_ms_p90", "remote-fleet", notFleet},
	{"remote.frames_per_test", "count", "lower", "tests_per_s, campaign_ms_p50, campaign_ms_p90", "remote-fleet", notFleet},
	{"remote.wire_bytes_per_test", "B", "lower", "tests_per_s, campaign_ms_p50, campaign_ms_p90", "remote-fleet", notFleet},
	{"remote.server_execs_per_test", "count", "lower", "tests_per_s, campaign_ms_p50, campaign_ms_p90", "remote-fleet", notFleet},
	{"remote.open_conns_end", "count", "lower", "tests_per_s, campaign_ms_p50, campaign_ms_p90", "remote-fleet", notFleet},

	{"go.allocs_per_test", "count", "lower", "tests_per_s, cpu_us_per_test, rss_p95_mb", allWorkloads, "none"},
	{"go.alloc_bytes_per_test", "B", "lower", "tests_per_s, cpu_us_per_test, rss_p95_mb", allWorkloads, "none"},
	{"go.gc_cpu_fraction", "ratio", "lower", "tests_per_s, cpu_us_per_test, rss_p95_mb", allWorkloads, "none"},
	{"go.goroutines_leaked", "count", "lower", "tests_per_s, cpu_us_per_test, rss_p95_mb", allWorkloads, "none"},

	{"trace.overhead_pct", "%", "lower", "none", allWorkloads, "none"},
	{"trace.unattributed_pct", "%", "lower", "none", allWorkloads, "none"},
}

// value is one reported measurement.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics by name; set fills in the declared
// unit, so a metric can only be reported under its declared name.
type metricSet map[string]value

func (r metricSet) set(ms []metric, name string, v float64) {
	for _, m := range ms {
		if m.name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			r[name] = value{Value: v, Unit: m.unit}
			return
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// perUnit divides, reporting 0 for an empty denominator.
func perUnit(total, n float64) float64 {
	if n == 0 {
		return 0
	}
	return total / n
}
