/**
 * @file
 * Real-time speech serving scenario (the paper's motivating workload):
 * a DeepSpeech-class GRU served as a BW hardware microservice with no
 * batching, versus the same model behind a GPU batching queue. Requests
 * arrive as a Poisson stream; the example reports the latency
 * distribution each discipline delivers and the batch sizes the GPU
 * needs to stay ahead of the offered load. The BW row is produced by
 * the serving engine's deterministic virtual-time replay — the same
 * admission/dispatch machinery the threaded engine runs — which
 * matches the analytic serveUnbatched() model.
 *
 * Set BW_STATS_JSON=<path> to also write the full comparison as a
 * machine-readable JSON document.
 *
 *   $ ./speech_service [rate_rps]
 */

#include <cstdio>
#include <cstdlib>

#include "bw/bw.h"

using namespace bw;

int
main(int argc, char **argv)
{
    double rate = argc > 1 ? std::atof(argv[1]) : 300.0;

    // A DeepSpeech-like utterance slice: GRU h=1024 over 100 timesteps.
    RnnLayerSpec layer{RnnKind::Gru, 1024, 100, 1024};
    std::printf("Workload: %s per request, Poisson %.0f req/s for 30 s "
                "of simulated time\n\n",
                layer.label().c_str(), rate);

    // --- BW microservice: one Session wraps compile + timing; the
    //     serving engine replays the arrival trace in virtual time. ---
    NpuConfig cfg = NpuConfig::bwS10();
    Rng rng(1);
    Session session = Session::compile(
        makeGru(randomGruWeights(layer.hidden, layer.hidden, rng)), cfg);
    auto perf = session.time(layer.timeSteps);
    double bw_service_ms = perf.latencyMs(cfg);

    // Datacenter network: the accelerator is a bump-in-the-wire NIC
    // neighbor — tens of microseconds round trip (Section II-A).
    double network_ms = 0.05;

    Rng arr_rng(7);
    auto arrivals = poissonArrivals(rate, 30.0, arr_rng);

    serve::EngineOptions bw_opts;
    bw_opts.networkMs = network_ms;
    bw_opts.queueDepth = arrivals.size(); // unbounded for the load curve
    auto engine = session.serve(bw_opts);
    ServeStats bw_stats = engine->replay(arrivals, layer.timeSteps);

    // --- GPU service: batching queue in front of the modeled Titan
    //     Xp. ---
    GpuModel gpu = GpuModel::titanXp();
    auto gpu_ms = [&](unsigned batch) {
        return gpuRnnInference(gpu, layer, batch).latencyMs;
    };
    ServeStats gpu_nobatch = serveBatched(arrivals, 1, 0.0, gpu_ms);
    ServeStats gpu_batch8 = serveBatched(arrivals, 8, 5.0, gpu_ms);

    TextTable t({"Service", "mean ms", "p50 ms", "p95 ms", "p99 ms",
                 "max ms", "req/s", "mean batch"});
    auto add = [&](const char *name, const ServeStats &s) {
        t.addRow({name, fmtF(s.meanLatencyMs, 2), fmtF(s.p50LatencyMs, 2),
                  fmtF(s.p95LatencyMs, 2), fmtF(s.p99LatencyMs, 2),
                  fmtF(s.maxLatencyMs, 2), fmtF(s.throughputRps, 0),
                  fmtF(s.meanBatch, 1)});
    };
    add("BW NPU (no batching)", bw_stats);
    add("Titan Xp (batch=1)", gpu_nobatch);
    add("Titan Xp (batch<=8, 5ms timeout)", gpu_batch8);
    std::printf("%s\n", t.render().c_str());

    std::printf("BW single-request service time: %.2f ms (%.1f%% of "
                "peak); GPU batch-1 service time:\n%.2f ms — the GPU "
                "must batch to keep up with the offered load, paying "
                "queueing\nand batch-formation latency that the "
                "single-request NPU never incurs.\n",
                bw_service_ms,
                100.0 * perf.utilization(cfg, layer.totalOps()),
                gpu_ms(1));

    // Machine-readable stats alongside the table.
    if (const char *path = std::getenv("BW_STATS_JSON")) {
        Json doc = Json::object();
        doc.set("workload", layer.label());
        doc.set("rate_rps", rate);
        doc.set("bw_service_ms", bw_service_ms);
        doc.set("network_ms", network_ms);
        doc.set("bw_unbatched", bw_stats.toJson());
        doc.set("gpu_batch1", gpu_nobatch.toJson());
        doc.set("gpu_batch8_5ms", gpu_batch8.toJson());
        writeJsonFile(path, doc);
        std::printf("\nStats JSON written to %s\n", path);
    }
    return 0;
}
