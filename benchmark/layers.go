package main

// perLayer lists the metrics a traced run (-trace 1) reports. They are
// measured from outside, by timing calls into each layer's public functions
// (see the span trees in ingest.go, query.go and restart.go), and have no
// regression bound. Every workload reports all of them; a layer the workload
// does not drive reports 0.
var perLayer = []metricDef{
	// extract (⊃ nlp, ner, coref) — ingest_stream
	{Name: "extract_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "nlp_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "raw_triples_per_doc", Unit: "count", Better: "higher"},
	// stream = predmap + disambig + linkpred + trust — ingest_stream
	{Name: "stream_self_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "predmap_us_per_triple", Unit: "us", Better: "lower"},
	{Name: "predmap_mapped_ratio", Unit: "ratio", Better: "higher"},
	{Name: "disambig_us_per_link", Unit: "us", Better: "lower"},
	{Name: "linkpred_score_us", Unit: "us", Better: "lower"},
	{Name: "linkpred_update_us", Unit: "us", Better: "lower"},
	{Name: "accepted_ratio", Unit: "ratio", Better: "higher"},
	// core / graph / temporal writes, persist, fgm upkeep — ingest_stream
	{Name: "addfacts_us_per_fact", Unit: "us", Better: "lower"},
	{Name: "persist_us_per_fact", Unit: "us", Better: "lower"},
	{Name: "fgm_add_us_per_fact", Unit: "us", Better: "lower"},
	{Name: "wal_bytes_per_fact", Unit: "bytes", Better: "lower"},
	{Name: "checkpoints", Unit: "count", Better: "lower"},
	// persist, core rebuild, nous assembly — restart_recover
	{Name: "replayed_records", Unit: "count", Better: "lower"},
	{Name: "persist_open_s", Unit: "s", Better: "lower"},
	{Name: "rebuild_s", Unit: "s", Better: "lower"},
	{Name: "assemble_s", Unit: "s", Better: "lower"},
	{Name: "assemble_miner_s", Unit: "s", Better: "lower"},
	{Name: "assemble_linkpred_s", Unit: "s", Better: "lower"},
	{Name: "assemble_gazetteer_s", Unit: "s", Better: "lower"},
	{Name: "assemble_trust_s", Unit: "s", Better: "lower"},
	// server — query workloads
	{Name: "http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "server_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "bytes_per_response", Unit: "bytes", Better: "lower"},
	// qa — query workloads
	{Name: "parse_us", Unit: "us", Better: "lower"},
	{Name: "class_p50_ms.entity", Unit: "ms", Better: "lower"},
	{Name: "class_p50_ms.fact", Unit: "ms", Better: "lower"},
	{Name: "class_p50_ms.relationship", Unit: "ms", Better: "lower"},
	{Name: "class_p50_ms.diff", Unit: "ms", Better: "lower"},
	{Name: "class_p50_ms.trending", Unit: "ms", Better: "lower"},
	{Name: "class_p50_ms.recent", Unit: "ms", Better: "lower"},
	{Name: "class_p50_ms.patterns", Unit: "ms", Better: "lower"},
	// plan — query workloads
	{Name: "optimize_us", Unit: "us", Better: "lower"},
	{Name: "exec_us", Unit: "us", Better: "lower"},
	{Name: "rows_examined_per_returned", Unit: "ratio", Better: "lower"},
	{Name: "memo_hit_ratio", Unit: "ratio", Better: "higher"},
	// analytics — query workloads
	{Name: "analytics_recomputes", Unit: "count", Better: "lower"},
	{Name: "pagerank_recompute_ms", Unit: "ms", Better: "lower"},
	// pathsearch / fgm / trends / temporal reads — query workloads
	{Name: "topk_us", Unit: "us", Better: "lower"},
	{Name: "patterns_us", Unit: "us", Better: "lower"},
	{Name: "trending_us", Unit: "us", Better: "lower"},
	{Name: "window_scan_us", Unit: "us", Better: "lower"},
	// the load generator and the tracer themselves
	{Name: "writer_late_ms", Unit: "ms", Better: "lower"},
	{Name: "span_coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
}
