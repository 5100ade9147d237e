// Umbrella header: the full public API of librwc.
//
// Fine-grained includes are preferred in library code; this header is for
// applications and quick experiments.
#pragma once

// util — primitives
#include "util/ascii_plot.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

// obs — observability (metrics registry, tracing, exporters)
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "obs/timer.hpp"

// fault — deterministic fault injection (plans, sites, RWC_FAULTS)
#include "fault/plan.hpp"
#include "fault/registry.hpp"

// exec — work-stealing thread pool and deterministic parallel loops
#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"

// graph — topologies and path algorithms
#include "graph/dijkstra.hpp"
#include "graph/dot.hpp"
#include "graph/graph.hpp"
#include "graph/ksp.hpp"

// flow — max-flow / min-cost-flow solvers
#include "flow/cycle_cancel.hpp"
#include "flow/decompose.hpp"
#include "flow/graph_adapter.hpp"
#include "flow/maxflow.hpp"
#include "flow/mincost.hpp"
#include "flow/network.hpp"

// lp — simplex solver
#include "lp/simplex.hpp"

// optical — modulation ladder and physics
#include "optical/ber.hpp"
#include "optical/link_budget.hpp"
#include "optical/modulation.hpp"

// telemetry — SNR traces and analyses (paper Section 2.1)
#include "telemetry/analysis.hpp"
#include "telemetry/snr_model.hpp"

// tickets — failure tickets and root causes (paper Section 2.2)
#include "tickets/analysis.hpp"
#include "tickets/generator.hpp"
#include "tickets/ticket.hpp"

// bvt — bandwidth-variable transceiver model (paper Section 3.1)
#include "bvt/constellation.hpp"
#include "bvt/device.hpp"
#include "bvt/latency.hpp"
#include "bvt/registers.hpp"

// te — traffic-engineering engines (unmodified consumers of topologies)
#include "te/algorithm.hpp"
#include "te/b4.hpp"
#include "te/cspf.hpp"
#include "te/demand.hpp"
#include "te/ecmp.hpp"
#include "te/mcf_lp.hpp"
#include "te/mcf_te.hpp"
#include "te/swan.hpp"

// core — the paper's contribution (Section 4)
#include "core/augment.hpp"
#include "core/controller.hpp"
#include "core/fixed_charge.hpp"
#include "core/hysteresis.hpp"
#include "core/penalty.hpp"
#include "core/translate.hpp"

// sim — round-by-round WAN simulation
#include "sim/simulator.hpp"
#include "sim/topology.hpp"
#include "sim/workload.hpp"
