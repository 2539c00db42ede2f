package main

// metricDef declares one metric of the scoreboard. BENCHMARK.json carries
// name, unit and direction (and the bound, for end-to-end metrics); the
// prediction — which end-to-end metric a layer metric should move, and on
// which workloads — lives here because the manifest format has no place for
// it. `go run . -manifest` prints BENCHMARK.json from these tables and a
// test holds the committed file to them.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only
	// Source says how a per-layer number is obtained: T spans of the traced
	// in-process replay, M live /metricz difference over the timed stream,
	// P /proc, C counted or timed by the generator.
	Source string
	// Moves names the end-to-end metric this layer metric should move and On
	// the workloads where it should; everywhere else the prediction is no
	// change. Empty Moves marks a control (host, trace, generator health).
	Moves string
	On    []string
}

// The end-to-end metrics are the ones this host can resolve. The driver
// refuses a benchmark whose identical runs spread past the bound, and on this
// shared 2-vCPU guest anything measured in seconds of a memory-bound stream
// moves with the host's other tenants: the same code ran at 116 k and at
// 205 k items/s within the hour, trustd's CPU per item doubled with it, and
// the quartile spread of ten runs reached 30-85 % (README, "What the host can
// resolve"). No statistic of a ten-second run cancels a drift that lasts
// minutes, so throughput and CPU cost are reported per layer, without a
// bound (goodput_items_s, cpu_ms_per_kitem below), and a change that claims a
// gain shows it by alternating pairs against its parent. What is left
// end-to-end does not depend on the host's speed: the memory one node needs,
// the bytes it moves through sockets and files per item, and set-up time,
// which the contract requires.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "rss_peak_mib", Unit: "MiB", Better: "lower", Bound: 0.15},
	{Name: "io_bytes_per_item", Unit: "B", Better: "lower", Bound: 0.10},
}

// speedReadings are the two host-dependent readings of the timed stream.
// They are per-layer entries in the manifest (no bound), and the other
// layer metrics may name them as the number they should move.
var speedReadings = []string{"goodput_items_s", "cpu_ms_per_kitem"}

var (
	wideIngest  = []string{"assess_wide", "ingest_durable"}
	mixedOnly   = []string{"mixed_skew"}
	deepOnly    = []string{"assess_deep"}
	ingestOnly  = []string{"ingest_durable"}
	clusterOnly = []string{"cluster3"}
	assessBoth  = []string{"assess_wide", "assess_deep"}
	incremental = []string{"assess_wide", "cluster3"}
)

var perLayer = []metricDef{
	{Name: "goodput_items_s", Unit: "1/s", Better: "higher", Source: "C"},
	{Name: "cpu_ms_per_kitem", Unit: "ms", Better: "lower", Source: "P"},

	{Name: "wire.encode_req_us_per_item", Unit: "us", Better: "lower", Source: "T", Moves: "cpu_ms_per_kitem", On: ingestOnly},
	{Name: "wire.decode_req_us_per_item", Unit: "us", Better: "lower", Source: "T", Moves: "cpu_ms_per_kitem", On: ingestOnly},
	{Name: "wire.encode_resp_us_per_item", Unit: "us", Better: "lower", Source: "T", Moves: "cpu_ms_per_kitem", On: []string{"assess_wide"}},
	{Name: "wire.decode_resp_us_per_item", Unit: "us", Better: "lower", Source: "T", Moves: "goodput_items_s", On: []string{"assess_wide"}},
	{Name: "wire.req_bytes_per_item", Unit: "B", Better: "lower", Source: "T", Moves: "io_bytes_per_item", On: ingestOnly},
	{Name: "wire.resp_bytes_per_item", Unit: "B", Better: "lower", Source: "T", Moves: "io_bytes_per_item", On: []string{"assess_wide"}},
	{Name: "wire.allocs_per_frame", Unit: "count", Better: "lower", Source: "T", Moves: "cpu_ms_per_kitem", On: wideIngest},

	{Name: "repclient.rtt_p50_ms", Unit: "ms", Better: "lower", Source: "C", Moves: "goodput_items_s", On: mixedOnly},
	{Name: "repclient.rtt_p99_ms", Unit: "ms", Better: "lower", Source: "C", Moves: "goodput_items_s", On: mixedOnly},
	{Name: "repclient.rtt_tail_pct", Unit: "%", Better: "higher", Source: "C"},
	{Name: "repclient.rtt_samples", Unit: "count", Better: "higher", Source: "C"},
	{Name: "repclient.redials", Unit: "count", Better: "lower", Source: "M"},
	{Name: "repclient.gen_cpu_ms_per_kitem", Unit: "ms", Better: "lower", Source: "C", Moves: "goodput_items_s", On: mixedOnly},
	{Name: "repclient.gen_busy_share", Unit: "share", Better: "lower", Source: "C"},

	{Name: "service.chain_us_per_req", Unit: "us", Better: "lower", Source: "T", Moves: "cpu_ms_per_kitem", On: mixedOnly},
	{Name: "service.requests.assess", Unit: "count", Better: "lower", Source: "M", Moves: "cpu_ms_per_kitem", On: mixedOnly},
	{Name: "service.requests.submit", Unit: "count", Better: "lower", Source: "M", Moves: "cpu_ms_per_kitem", On: mixedOnly},
	{Name: "service.requests.assess.batch", Unit: "count", Better: "lower", Source: "M", Moves: "cpu_ms_per_kitem", On: []string{"assess_wide", "assess_deep", "cluster3"}},
	{Name: "service.requests.submit.batch", Unit: "count", Better: "lower", Source: "M", Moves: "cpu_ms_per_kitem", On: []string{"assess_deep", "ingest_durable", "cluster3"}},
	{Name: "service.requests.fwd", Unit: "count", Better: "lower", Source: "M", Moves: "cpu_ms_per_kitem", On: clusterOnly},
	{Name: "service.errors", Unit: "count", Better: "lower", Source: "M"},
	{Name: "service.server_p99_ms.assess", Unit: "ms", Better: "lower", Source: "M", Moves: "cpu_ms_per_kitem", On: mixedOnly},
	{Name: "service.server_p99_ms.submit", Unit: "ms", Better: "lower", Source: "M", Moves: "cpu_ms_per_kitem", On: mixedOnly},
	{Name: "service.server_p99_ms.assess.batch", Unit: "ms", Better: "lower", Source: "M", Moves: "goodput_items_s", On: []string{"assess_wide", "assess_deep", "cluster3"}},
	{Name: "service.server_p99_ms.submit.batch", Unit: "ms", Better: "lower", Source: "M", Moves: "goodput_items_s", On: []string{"ingest_durable", "cluster3"}},

	{Name: "repserver.assess_batch_us_per_item", Unit: "us", Better: "lower", Source: "T", Moves: "cpu_ms_per_kitem", On: []string{"assess_wide"}},
	{Name: "repserver.assess_us", Unit: "us", Better: "lower", Source: "T", Moves: "cpu_ms_per_kitem", On: mixedOnly},
	{Name: "repserver.self_us_per_item", Unit: "us", Better: "lower", Source: "T", Moves: "cpu_ms_per_kitem", On: []string{"assess_wide", "mixed_skew"}},
	{Name: "repserver.incremental_served", Unit: "count", Better: "higher", Source: "M", Moves: "cpu_ms_per_kitem", On: incremental},
	{Name: "repserver.fallbacks", Unit: "count", Better: "lower", Source: "M", Moves: "cpu_ms_per_kitem", On: incremental},
	{Name: "repserver.batch_items", Unit: "count", Better: "higher", Source: "M", Moves: "cpu_ms_per_kitem", On: []string{"assess_wide"}},
	{Name: "repserver.submit_batch_items", Unit: "count", Better: "higher", Source: "M", Moves: "cpu_ms_per_kitem", On: ingestOnly},
	{Name: "repserver.submit_batch_rejects", Unit: "count", Better: "lower", Source: "M", Moves: "goodput_items_s", On: ingestOnly},

	{Name: "store.add_batch_us_per_item", Unit: "us", Better: "lower", Source: "T", Moves: "goodput_items_s", On: []string{"ingest_durable", "mixed_skew"}},
	{Name: "store.view_shard_us_per_item", Unit: "us", Better: "lower", Source: "T", Moves: "goodput_items_s", On: []string{"assess_wide"}},
	{Name: "store.snapshot_us", Unit: "us", Better: "lower", Source: "T", Moves: "goodput_items_s", On: mixedOnly},
	{Name: "store.resident_bytes_per_record", Unit: "B", Better: "lower", Source: "T", Moves: "rss_peak_mib", On: ingestOnly},
	{Name: "store.shards_per_frame", Unit: "count", Better: "lower", Source: "T", Moves: "goodput_items_s", On: ingestOnly},

	{Name: "assesscache.hit_share", Unit: "share", Better: "higher", Source: "M", Moves: "goodput_items_s", On: mixedOnly},
	{Name: "assesscache.invalidations", Unit: "count", Better: "lower", Source: "M", Moves: "goodput_items_s", On: mixedOnly},
	{Name: "assesscache.get_us", Unit: "us", Better: "lower", Source: "T", Moves: "goodput_items_s", On: mixedOnly},
	{Name: "assesscache.put_us", Unit: "us", Better: "lower", Source: "T", Moves: "goodput_items_s", On: mixedOnly},

	{Name: "core.accept_incremental_us_per_item", Unit: "us", Better: "lower", Source: "T", Moves: "cpu_ms_per_kitem", On: incremental},
	{Name: "core.accept_recompute_us_per_item", Unit: "us", Better: "lower", Source: "T", Moves: "cpu_ms_per_kitem", On: deepOnly},
	{Name: "core.acc_append_us_per_item", Unit: "us", Better: "lower", Source: "T", Moves: "cpu_ms_per_kitem", On: ingestOnly},
	{Name: "core.acc_bytes_per_server", Unit: "B", Better: "lower", Source: "T", Moves: "rss_peak_mib", On: []string{"assess_wide"}},

	{Name: "behavior.test_us_per_item", Unit: "us", Better: "lower", Source: "T", Moves: "cpu_ms_per_kitem", On: deepOnly},
	{Name: "behavior.suffixes_per_item", Unit: "count", Better: "lower", Source: "T", Moves: "cpu_ms_per_kitem", On: deepOnly},
	{Name: "behavior.suspicious_share", Unit: "share", Better: "lower", Source: "T"},
	{Name: "stats.pmf_fill_us", Unit: "us", Better: "lower", Source: "T", Moves: "cpu_ms_per_kitem", On: deepOnly},
	{Name: "stats.threshold_us", Unit: "us", Better: "lower", Source: "T", Moves: "cpu_ms_per_kitem", On: deepOnly},
	{Name: "stats.calibration_warm_s", Unit: "s", Better: "lower", Source: "T", Moves: "setup_s", On: assessBoth},
	{Name: "trust.value_us_per_item", Unit: "us", Better: "lower", Source: "T", Moves: "cpu_ms_per_kitem", On: deepOnly},

	{Name: "feedback.append_binary_ns_per_record", Unit: "ns", Better: "lower", Source: "T", Moves: "cpu_ms_per_kitem", On: ingestOnly},
	{Name: "feedback.decode_binary_ns_per_record", Unit: "ns", Better: "lower", Source: "T", Moves: "cpu_ms_per_kitem", On: ingestOnly},

	{Name: "ledger.append_batch_us_per_record", Unit: "us", Better: "lower", Source: "T", Moves: "goodput_items_s", On: ingestOnly},
	{Name: "ledger.flushes", Unit: "count", Better: "lower", Source: "M", Moves: "goodput_items_s", On: ingestOnly},
	{Name: "ledger.coalesced_flushes", Unit: "count", Better: "higher", Source: "M", Moves: "goodput_items_s", On: ingestOnly},
	{Name: "ledger.group_size_p50", Unit: "count", Better: "higher", Source: "M", Moves: "goodput_items_s", On: ingestOnly},
	{Name: "ledger.bytes_per_record", Unit: "B", Better: "lower", Source: "M", Moves: "io_bytes_per_item", On: ingestOnly},
	{Name: "ledger.segments", Unit: "count", Better: "lower", Source: "M", Moves: "goodput_items_s", On: ingestOnly},
	{Name: "ledger.snapshot_ms", Unit: "ms", Better: "lower", Source: "T", Moves: "goodput_items_s", On: ingestOnly},
	{Name: "ledger.boot_ms", Unit: "ms", Better: "lower", Source: "C", Moves: "setup_s", On: ingestOnly},
	{Name: "ledger.reopen_verify_ms", Unit: "ms", Better: "lower", Source: "C"},

	{Name: "cluster.ring_lookup_ns", Unit: "ns", Better: "lower", Source: "T", Moves: "cpu_ms_per_kitem", On: clusterOnly},
	{Name: "cluster.forwarded", Unit: "count", Better: "lower", Source: "M", Moves: "cpu_ms_per_kitem", On: clusterOnly},
	{Name: "cluster.forward_share", Unit: "share", Better: "lower", Source: "T", Moves: "io_bytes_per_item", On: clusterOnly},
	{Name: "cluster.merged_assess", Unit: "count", Better: "lower", Source: "M", Moves: "cpu_ms_per_kitem", On: clusterOnly},
	{Name: "cluster.digest_mismatch", Unit: "count", Better: "lower", Source: "M", Moves: "cpu_ms_per_kitem", On: clusterOnly},
	{Name: "cluster.peer_rtt_ms", Unit: "ms", Better: "lower", Source: "M", Moves: "goodput_items_s", On: clusterOnly},
	{Name: "cluster.fwd_hop_us_per_item", Unit: "us", Better: "lower", Source: "T", Moves: "goodput_items_s", On: clusterOnly},
	{Name: "cluster.door_cpu_share", Unit: "share", Better: "lower", Source: "P", Moves: "cpu_ms_per_kitem", On: clusterOnly},

	{Name: "proc.user_ms_per_kitem", Unit: "ms", Better: "lower", Source: "P", Moves: "cpu_ms_per_kitem", On: []string{"assess_wide", "assess_deep", "ingest_durable", "mixed_skew", "cluster3"}},
	{Name: "proc.sys_ms_per_kitem", Unit: "ms", Better: "lower", Source: "P", Moves: "cpu_ms_per_kitem", On: []string{"mixed_skew", "cluster3"}},
	{Name: "proc.ctx_switches_per_kitem", Unit: "count", Better: "lower", Source: "P", Moves: "cpu_ms_per_kitem", On: []string{"mixed_skew", "cluster3"}},
	{Name: "proc.io_calls_per_kitem", Unit: "count", Better: "lower", Source: "P", Moves: "cpu_ms_per_kitem", On: []string{"mixed_skew", "cluster3"}},
	{Name: "proc.threads_peak", Unit: "count", Better: "lower", Source: "P"},
	{Name: "host.spin_ms_before", Unit: "ms", Better: "lower", Source: "C"},
	{Name: "host.spin_ms_after", Unit: "ms", Better: "lower", Source: "C"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Source: "T"},
}
