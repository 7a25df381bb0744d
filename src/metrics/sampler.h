/**
 * @file
 * Background metrics sampler: a thread that snapshots every counter
 * and gauge in a Registry on a configurable period, producing a
 * timestamped series. The series exports as Chrome trace counter
 * events (ph:"C"), so sampled metrics — queue depth, inflight
 * requests, per-replica busy time — overlay the serving engine's
 * Perfetto timeline as counter tracks above the event waterfall.
 */

#ifndef BW_METRICS_SAMPLER_H
#define BW_METRICS_SAMPLER_H

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "metrics/metrics.h"

namespace bw {
namespace metrics {

/** One sampled value of one counter/gauge instance. */
struct Sample
{
    uint64_t tUs = 0; //!< microseconds since the sampler's epoch
    std::string name;
    Labels labels;
    double value = 0;
};

/**
 * Samples @p registry every @p period_ms on a background thread
 * between start() and stop(). Timestamps are measured from @p epoch so
 * they can share a clock with serve::Engine's trace (pass
 * engine.epoch()); the default epoch is construction time.
 */
class Sampler
{
  public:
    explicit Sampler(
        const Registry &registry, double period_ms = 100.0,
        std::chrono::steady_clock::time_point epoch =
            std::chrono::steady_clock::now());

    /** Joins the thread (taking one final sample) if still running. */
    ~Sampler();

    Sampler(const Sampler &) = delete;
    Sampler &operator=(const Sampler &) = delete;

    /** Spawn the sampling thread (idempotent). */
    void start();

    /** Take a final sample, then join the thread (idempotent). */
    void stop();

    /** Take one sample now, on the caller's thread (usable without
     *  start() for deterministic tests). */
    void sampleOnce();

    /** All samples so far, oldest first (thread-safe copy). */
    std::vector<Sample> samples() const;

  private:
    void loop();
    void record(uint64_t t_us);

    const Registry &registry_;
    double periodMs_;
    std::chrono::steady_clock::time_point epoch_;

    mutable std::mutex mu_;
    std::condition_variable cv_;
    bool running_ = false;
    bool stopping_ = false;
    std::thread thread_;
    std::vector<Sample> samples_;
};

/**
 * Render samples as Chrome trace counter events (ph:"C", one counter
 * track per metric instance). Returns a JSON array suitable for
 * concatenation with other traceEvents.
 */
Json counterTraceEvents(const std::vector<Sample> &samples);

/**
 * Append counter events for @p samples to @p chrome_doc's traceEvents
 * array (a document from obs::chromeTraceJson()), overlaying the
 * sampled series on the event timeline.
 */
void appendCounterEvents(Json &chrome_doc,
                         const std::vector<Sample> &samples);

} // namespace metrics
} // namespace bw

#endif // BW_METRICS_SAMPLER_H
