package obs

import "strings"

// metricHelp maps every metric family the repo emits to the one-line
// description rendered on its `# HELP` exposition line. Names not
// listed fall back to a generated description so scrapers always see a
// HELP line for every family.
var metricHelp = map[string]string{
	"bufpool_hits_total":           "Buffer-pool gets served from a pooled buffer.",
	"bufpool_misses_total":         "Buffer-pool gets that had to allocate.",
	"bufpool_puts_total":           "Buffers returned to the pool.",
	"bufpool_put_rejects_total":    "Buffers discarded on return for being off-class.",
	"bufpool_recycled_bytes_total": "Bytes served from recycled buffers.",

	"chaos_sends_total":   "Sends observed by the fault injector.",
	"chaos_dropped_total": "Sends silently dropped by the fault injector.",
	"chaos_errored_total": "Sends failed with an injected error.",
	"chaos_killed_total":  "Sends refused because the peer or sender is killed.",
	"chaos_kills_total":   "Node kills fired by the fault injector.",

	"eccheckd_events_dropped_total":         "Health events dropped by slow /v1/events subscribers.",
	"eccheckd_http_responses_total":         "HTTP responses served by the daemon, by route and status.",
	"eccheckd_job_rounds_started_total":     "Checkpoint rounds started across daemon jobs.",
	"eccheckd_job_rounds_finished_total":    "Checkpoint rounds finished across daemon jobs.",
	"eccheckd_job_round_failures_total":     "Checkpoint rounds failed across daemon jobs.",
	"eccheckd_jobs_registered_total":        "Jobs registered with the daemon.",
	"eccheckd_jobs_deleted_total":           "Jobs unregistered from the daemon.",
	"eccheckd_node_failures_injected_total": "Machine failures injected through the daemon API.",
	"eccheckd_quota_rejected_total":         "Registrations rejected by a tenant quota.",
	"eccheckd_save_slot_grants_total":       "Fleet-wide save-slot admissions granted.",
	"eccheckd_save_slot_rejected_total":     "Save-slot requests rejected (context cancelled while queued).",
	"eccheckd_save_slot_wait_ns":            "Save-round queueing delay for the fleet-wide slot in nanoseconds.",
	"eccheckd_save_slot_hold_ns":            "Save-slot hold time per admitted round in nanoseconds.",

	"hostmem_stores_total":      "Blobs written to node host memory.",
	"hostmem_store_bytes_total": "Bytes written to node host memory.",
	"hostmem_loads_total":       "Blobs read from node host memory.",
	"hostmem_load_bytes_total":  "Bytes read from node host memory.",

	"incremental_changed_buffers_total": "Buffers re-encoded because their content hash changed.",
	"incremental_total_buffers_total":   "Buffers examined by the incremental-save hash check.",

	"load_rounds_total":          "Completed checkpoint load rounds.",
	"load_rebuilt_chunks_total":  "Chunks reconstructed from erasure-coded parity during load.",
	"load_corrupt_blobs_total":   "Blobs failing checksum during load, treated as erasures.",
	"load_budget_exceeded_total": "Load rounds finishing past their restore latency budget.",
	"load_partial_rounds_total":  "Lazy partial-restore rounds.",
	"load_partial_bytes_total":   "Bytes materialized by lazy partial restores.",
	"load_restore_ns":            "End-to-end restore wall time in nanoseconds.",
	"load_phase_ns":              "Per-phase load time in nanoseconds.",

	"membership_drains_total":         "Planned node drains completed.",
	"membership_drain_failures_total": "Planned node drains that failed.",
	"membership_drain_bytes_total":    "Checkpoint bytes handed off by draining nodes.",
	"membership_restores_total":       "Delta-parity repairs restoring full redundancy.",
	"membership_restore_bytes_total":  "Bytes rebuilt by delta-parity repairs.",

	"prefetch_rounds_total":   "Remote prefetch sweeps warming the restore cache.",
	"prefetch_segments_total": "Remote segments warmed by prefetch sweeps.",

	"remote_load_rounds_total":      "Load rounds that fell back to the remote tier.",
	"remote_persist_failures_total": "Committed save rounds whose remote persist failed; the round still succeeded, its version is only in host memory.",

	"round_stuck_total": "Round phases flagged by the stuck-round watchdog.",

	"remote_puts_total":      "Objects written to the remote store.",
	"remote_gets_total":      "Objects read from the remote store.",
	"remote_put_bytes_total": "Bytes written to the remote store.",
	"remote_get_bytes_total": "Bytes read from the remote store.",
	"remote_transfer_ns":     "Remote-store transfer latency in nanoseconds.",

	"save_rounds_total":             "Completed checkpoint save rounds.",
	"save_segments_allocated_total": "Payload blobs (chunk segments and own-packet caches) a save round allocated because the node's spare stack had none (first rounds, after an abort, a replacement or a packet-size change).",
	"save_segments_carried_total":   "Payload blobs (chunk segments and own-packet caches) a delta save round left stored as they were, per node-round, because no changed window feeds them: not read, copied, checksummed or restaged.",
	"save_segments_recycled_total":  "Payload blobs (chunk segments and own-packet caches) a save round assembled in the buffers earlier commits displaced: the steady state.",
	"save_small_bytes_total":        "Bytes of small tensors replicated outside the erasure code.",
	"save_round_ns":                 "End-to-end save round wall time in nanoseconds.",
	"save_stall_ns":                 "Training time blocked by a save round, in nanoseconds.",
	"save_overlap_ns":               "Save work overlapped with training, in nanoseconds.",
	"save_phase_ns":                 "Per-phase save/load time in nanoseconds.",
	"save_incremental_rounds_total": "SaveIncremental rounds that shipped a delta rather than falling back to a full round.",
	"save_incremental_ns":           "Wall time of SaveIncremental rounds that shipped a delta, in nanoseconds.",

	"transport_sends_total":         "Messages sent over the transport.",
	"transport_send_bytes_total":    "Payload bytes sent over the transport.",
	"transport_recvs_total":         "Messages received over the transport.",
	"transport_recv_bytes_total":    "Payload bytes received over the transport.",
	"transport_send_errors_total":   "Transport sends that returned an error.",
	"transport_recv_errors_total":   "Transport receives that returned an error.",
	"transport_dials_total":         "TCP transport dial attempts.",
	"transport_dial_retries_total":  "TCP transport dial retries after a refused connection.",
	"transport_dial_failures_total": "TCP transport dials that exhausted their retry budget.",

	"verify_runs_total":             "Integrity-scan sweeps over the cluster.",
	"verify_segments_total":         "Segments checked by the integrity scan.",
	"verify_corrupt_segments_total": "Segments failing checksum during the integrity scan.",
	"verify_ns":                     "Integrity-scan wall time in nanoseconds.",
}

// CuratedHelp reports whether name has a hand-written HELP entry, and
// returns it. The suffix-generated fallback in helpFor deliberately does
// not count: the help-coverage test uses this to fail the build when a
// new metric family ships without documentation.
func CuratedHelp(name string) (string, bool) {
	h, ok := metricHelp[name]
	return h, ok
}

// helpFor returns the HELP text for a metric family, generating a
// fallback for unknown names.
func helpFor(name string) string {
	if h, ok := metricHelp[name]; ok {
		return h
	}
	switch {
	case strings.HasSuffix(name, "_ns"):
		return "Duration metric " + name + " in nanoseconds."
	case strings.HasSuffix(name, "_bytes_total"):
		return "Byte counter " + name + "."
	case strings.HasSuffix(name, "_total"):
		return "Counter " + name + "."
	default:
		return "Metric " + name + "."
	}
}

// escapeHelp escapes a HELP line per the Prometheus exposition format:
// backslash and line feed only (double quotes are legal in HELP text).
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
