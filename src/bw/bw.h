/**
 * @file
 * Umbrella header for the Brainwave NPU reproduction library.
 *
 * Typical quickstart — one Session wraps compile, functional serving,
 * cycle-level timing, and the concurrent serving engine:
 *
 *   #include "bw/bw.h"
 *
 *   bw::NpuConfig cfg = bw::NpuConfig::bwS10();
 *   bw::Rng rng(42);
 *   bw::GirGraph g = bw::makeLstm(bw::randomLstmWeights(512, 512, rng));
 *   bw::Session s = bw::Session::compile(g, cfg);
 *
 *   // Functional serving (bit-accurate BFP/float16 arithmetic):
 *   auto outputs = s.infer(inputs);
 *
 *   // Performance (cycle-level microarchitecture model):
 *   auto perf = s.time(steps);
 *
 *   // Concurrent serving (worker threads over accelerator replicas):
 *   auto engine = s.serve({.replicas = 2, .queueDepth = 32});
 *   auto fut = engine->submit(serve::Request::functional(inputs));
 *   // fut: Expected<future<Response>>
 *   engine->drain();
 *
 * The pieces remain individually reachable — s.model() is the
 * CompiledModel, s.machine() the installed FuncMachine, s.timer() the
 * NpuTiming instance — and the pre-Session entry points
 * (CompiledModel::install/runSequence, NpuTiming::setTileBeats/run)
 * keep working unchanged.
 */

#ifndef BW_BW_H
#define BW_BW_H

#include "arch/mem_id.h"
#include "arch/npu_config.h"
#include "baseline/gpu_model.h"
#include "bfp/bfp.h"
#include "bfp/float16.h"
#include "cluster/chaos.h"
#include "cluster/cluster.h"
#include "cluster/router.h"
#include "cluster/traffic.h"
#include "cluster/weight_cache.h"
#include "common/env_doc.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table.h"
#include "common/units.h"
#include "compiler/conv_lowering.h"
#include "compiler/lowering.h"
#include "critpath/conv_critpath.h"
#include "critpath/critpath.h"
#include "func/machine.h"
#include "graph/builders.h"
#include "graph/conv.h"
#include "graph/gir.h"
#include "isa/analysis.h"
#include "isa/assembler.h"
#include "isa/builder.h"
#include "isa/encoding.h"
#include "isa/validate.h"
#include "metrics/exposition.h"
#include "metrics/http_server.h"
#include "metrics/metrics.h"
#include "metrics/sampler.h"
#include "obs/chrome_trace.h"
#include "obs/fleet.h"
#include "obs/flight.h"
#include "obs/incident.h"
#include "obs/span.h"
#include "obs/stall.h"
#include "obs/trace.h"
#include "refmodel/conv_ref.h"
#include "refmodel/rnn_ref.h"
#include "runtime/multi_fpga.h"
#include "runtime/serving.h"
#include "serve/engine.h"
#include "serve/session.h"
#include "serve/slo.h"
#include "synth/resource_model.h"
#include "tensor/tensor.h"
#include "timing/npu_timing.h"
#include "timing/timing_model.h"
#include "workloads/deepbench.h"
#include "workloads/paper_data.h"
#include "workloads/resnet50.h"

#endif // BW_BW_H
