// v6class.h — umbrella header for libv6class.
//
// Pulls in the whole public API. Fine for applications and examples;
// library code should include the specific headers it uses.
#pragma once

// Address substrate.
#include "v6class/ip/address.h"
#include "v6class/ip/arithmetic.h"
#include "v6class/ip/io.h"
#include "v6class/ip/ipv4.h"
#include "v6class/ip/mac.h"
#include "v6class/ip/prefix.h"

// Content classification.
#include "v6class/addrtype/classify.h"
#include "v6class/addrtype/malone.h"

// Tries and aggregation.
#include "v6class/trie/aguri_profiler.h"
#include "v6class/trie/prefix_map.h"
#include "v6class/trie/radix_tree.h"

// Temporal classification.
#include "v6class/temporal/daily_series.h"
#include "v6class/temporal/observation_store.h"
#include "v6class/temporal/stability.h"
#include "v6class/temporal/window.h"

// Streaming ingest.
#include "v6class/stream/bounded_queue.h"
#include "v6class/stream/engine.h"
#include "v6class/stream/record.h"
#include "v6class/stream/shard.h"

// Observability (metrics registry, phase timers, /metrics endpoint).
#include "v6class/obs/http.h"
#include "v6class/obs/metrics.h"
#include "v6class/obs/timer.h"

// Spatial classification.
#include "v6class/spatial/boxplot.h"
#include "v6class/spatial/density.h"
#include "v6class/spatial/gnuplot.h"
#include "v6class/spatial/mra.h"
#include "v6class/spatial/mra_compare.h"
#include "v6class/spatial/mra_plot.h"
#include "v6class/spatial/population.h"
#include "v6class/spatial/spatial_class.h"

// Synthetic substrate (simulation of the paper's proprietary datasets).
#include "v6class/cdnsim/corpus.h"
#include "v6class/cdnsim/log.h"
#include "v6class/cdnsim/world.h"
#include "v6class/dnssim/reverse_zone.h"
#include "v6class/netgen/iid.h"
#include "v6class/netgen/model.h"
#include "v6class/netgen/models.h"
#include "v6class/netgen/rir_registry.h"
#include "v6class/netgen/rng.h"
#include "v6class/routersim/scan.h"
#include "v6class/routersim/targets.h"
#include "v6class/routersim/topology.h"

// Analysis and reporting.
#include "v6class/analysis/eui64_mobility.h"
#include "v6class/analysis/format.h"
#include "v6class/analysis/network_profile.h"
#include "v6class/analysis/plan_recon.h"
#include "v6class/analysis/reports.h"
