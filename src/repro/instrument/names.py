"""The span, counter, gauge and event name catalogue.

Every name the routing stack emits lives here so exporters, tests and
dashboards share one vocabulary.  Counter names are dotted
``subsystem.metric`` strings; span names mirror the call hierarchy.
``docs/OBSERVABILITY.md`` documents the semantics of each entry and
the protocol for adding new ones.
"""

from __future__ import annotations

# -- spans (aggregated tree nodes) -------------------------------------
SPAN_FLOW_TWO_LAYER = "flow.two_layer"
SPAN_FLOW_OVERCELL = "flow.overcell"
SPAN_FLOW_ML_CHANNEL = "flow.ml_channel"
SPAN_PLACEMENT = "placement"
SPAN_GLOBAL_ROUTE = "global_route"
SPAN_CHANNEL_ROUTING = "channel_routing"
SPAN_CHANNEL_GREEDY = "channel.greedy"
SPAN_CHANNEL_LEFT_EDGE = "channel.left_edge"
SPAN_LEVELB_ROUTE = "levelb.route"
SPAN_LEVELB_NET = "levelb.net"
SPAN_MBFS_SEARCH = "mbfs.search"
SPAN_MAZE_RESCUE = "maze.rescue"
SPAN_REACH_FLOOD = "reach.flood"
SPAN_CHECK = "check"
SPAN_CHECK_COMMIT = "check.commit"
SPAN_LINT = "lint"

SPAN_ITERATE = "iterate"
SPAN_ITERATE_PASS = "iterate.pass"

SPAN_DISPATCH_BATCH = "dispatch.batch"
SPAN_DISPATCH_JOB = "dispatch.job"

SPAN_SERVE_JOB = "serve.job"

# -- counters ----------------------------------------------------------
MBFS_SEARCHES = "mbfs.searches"
MBFS_NODES_EXPANDED = "mbfs.nodes_expanded"
MBFS_ABORTS = "mbfs.aborts"
PST_CANDIDATES = "pst.candidates"
PST_BACKTRACK_STEPS = "pst.backtrack_steps"
REGION_EXPANSIONS = "region.expansions"
MAZE_SEARCHES = "maze.searches"
MAZE_NODES_EXPANDED = "maze.nodes_expanded"
MAZE_FALLBACKS = "maze.fallbacks"
REACH_FLOODS = "reach.floods"
REACH_PRUNED = "reach.pruned"
RIPUPS = "ripups.performed"
OCC_CELLS_TOUCHED = "occupancy.cells_touched"
TXN_COMMITS = "txn.commits"
TXN_ROLLBACKS = "txn.rollbacks"
TXN_UNDO_CELLS = "txn.undo_cells"
NETS_ROUTED = "nets.routed"
NETS_FAILED = "nets.failed"
CONNECTIONS_ROUTED = "connections.routed"
VCG_CYCLES = "vcg.cycles_hit"
CHANNELS_ROUTED = "channels.routed"
GREEDY_COLUMNS = "greedy.columns_swept"
GREEDY_TRACKS_ADDED = "greedy.tracks_added"
ITERATE_PASSES = "iterate.iterations"
ITERATE_NETS_RIPPED = "iterate.nets_ripped"
ITERATE_STALLS = "iterate.stalls"
ITERATE_ROLLBACKS = "iterate.rollbacks"
DISPATCH_JOBS_SUBMITTED = "dispatch.jobs_submitted"
DISPATCH_JOBS_COMPLETED = "dispatch.jobs_completed"
DISPATCH_JOBS_FAILED = "dispatch.jobs_failed"
DISPATCH_JOBS_RETRIED = "dispatch.jobs_retried"
DISPATCH_JOBS_TIMED_OUT = "dispatch.jobs_timed_out"
SERVE_REQUESTS = "serve.requests"
SERVE_JOBS_SUBMITTED = "serve.jobs_submitted"
SERVE_JOBS_COMPLETED = "serve.jobs_completed"
SERVE_JOBS_FAILED = "serve.jobs_failed"
SERVE_CACHE_HITS = "serve.cache_hits"
SERVE_CACHE_MISSES = "serve.cache_misses"
SERVE_COALESCED = "serve.jobs_coalesced"
CHECKS_RUN = "check.runs"
CHECK_RULES_EVALUATED = "check.rules_evaluated"
CHECK_VIOLATIONS = "check.violations"
LINT_RUNS = "lint.runs"
LINT_FILES = "lint.files_scanned"
LINT_RULES_EVALUATED = "lint.rules_evaluated"
LINT_VIOLATIONS = "lint.violations"
LINT_SUPPRESSED = "lint.suppressed"

# -- gauges ------------------------------------------------------------
LEVELB_UTILIZATION = "levelb.grid_utilization"
#: Largest accumulated negotiated-congestion charge on any one track
#: when an iterative run finishes (docs/ITERATION.md).
ITERATE_HISTORY_PEAK = "iterate.history_peak"
#: Bytes the occupancy arrays hold (all planes summed).
MEM_GRID_BYTES = "mem.grid_bytes"
#: Process peak RSS (resource.getrusage, bytes) sampled when a flow
#: finishes; recorded into FlowResult.profile by the flow layer.
MEM_PEAK_RSS_BYTES = "mem.peak_rss_bytes"

# -- events (append-only structured log) -------------------------------
EVT_NET_ROUTED = "net.routed"
EVT_NET_FAILED = "net.failed"
EVT_MAZE_FALLBACK = "maze.fallback"
EVT_RIPUP = "ripup"
EVT_CHANNEL_CYCLIC = "channel.cyclic"
EVT_CHECK_VIOLATION = "check.violation"
EVT_LINT_VIOLATION = "lint.violation"
EVT_PLANE_ASSIGNED = "levelb.plane_assigned"
EVT_ITERATE_PASS = "iterate.pass_finished"
EVT_JOB_FINISHED = "dispatch.job_finished"
EVT_SERVE_JOB_STATE = "serve.job_state"
