/**
 * @file
 * bw::Session — the one-object entry point to the library.
 *
 * The historical surface had three disconnected flows: FuncMachine +
 * CompiledModel::install/runSequence for functional serving, then
 * timing::NpuTiming + setTileBeats + run for performance, then the
 * analytic ServeStats helpers for load curves. A Session wraps all
 * three behind one handle:
 *
 *   bw::Session s = bw::Session::compile(graph, cfg);
 *   auto ys = s.infer(xs);             // functional, bit-accurate
 *   auto perf = s.time(steps);         // cycle-level timing
 *   auto engine = s.serve(engineOpts); // concurrent serving engine
 *
 * The underlying objects stay reachable (model(), machine(), timer())
 * for callers that need the full control surface, and the old entry
 * points keep working — Session is a front door, not a wall.
 */

#ifndef BW_SERVE_SESSION_H
#define BW_SERVE_SESSION_H

#include <array>
#include <memory>

#include "compiler/lowering.h"
#include "serve/engine.h"
#include "timing/npu_timing.h"
#include "timing/timing_model.h"

namespace bw {

/** A compiled model plus lazily created simulators to run it on. */
class Session
{
  public:
    /** Compile @p graph for @p cfg (throws bw::Error when the model
     *  does not fit the configuration). */
    static Session compile(const GirGraph &graph, const NpuConfig &cfg,
                           const CompileOptions &options = {});

    /** Adopt an already compiled model. */
    explicit Session(CompiledModel model);

    const CompiledModel &model() const { return *model_; }
    const NpuConfig &config() const { return model_->cfg; }

    // --- Functional serving (bit-accurate BFP/float16 arithmetic). ---

    /** One unpipelined step (throws bw::Error on invalid input). */
    FVec infer(std::span<const float> x);

    /** A whole input sequence (handles pipelined models). */
    std::vector<FVec> infer(const std::vector<FVec> &xs);

    /** Clear recurrent state between independent requests (keeps the
     *  installed weights). */
    void reset();

    /** The lazily created, installed functional machine. */
    FuncMachine &machine();

    // --- Performance (tiered timing-fidelity models). ---

    /** Simulate serving @p steps timesteps (prologue handled) at the
     *  session's default fidelity (BW_TIMING_MODE, captured at
     *  construction; CycleAccurate when unset). */
    timing::TimingResult time(unsigned steps = 1);

    /** As time(steps) at an explicit fidelity tier. */
    timing::TimingResult time(unsigned steps, timing::Fidelity f);

    /** As time(steps), additionally collecting the retired-chain
     *  profiles (the span-tracing / stall-attribution feed) into
     *  @p chains. */
    timing::TimingResult timeProfiled(
        unsigned steps, std::vector<obs::ChainProfile> *chains);

    /** As timeProfiled() at an explicit fidelity tier. */
    timing::TimingResult timeProfiled(
        unsigned steps, std::vector<obs::ChainProfile> *chains,
        timing::Fidelity f);

    /** Wall-clock latency of one @p steps-step request (cached by the
     *  serving engine's convention: one timing run per step count). */
    double serviceMs(unsigned steps);

    /** As serviceMs() at an explicit fidelity tier. */
    double serviceMs(unsigned steps, timing::Fidelity f);

    /** The fidelity time()/serviceMs() default to: BW_TIMING_MODE at
     *  construction, else CycleAccurate. */
    timing::Fidelity defaultFidelity() const { return defaultFidelity_; }

    /** The lazily created timing model for one fidelity tier, with the
     *  model's tile-beat schedule applied. One instance per tier per
     *  session — the Cached tier's memo persists across calls. */
    timing::TimingModel &timingModel(timing::Fidelity f);

    /** The lazily created cycle-accurate simulator with the model's
     *  tile-beat schedule applied — attach trace sinks here. Shares
     *  the CycleAccurate tier's instance, so sink attachments also
     *  cover time(steps, Fidelity::CycleAccurate). */
    timing::NpuTiming &timer();

    // --- Serving (concurrent engine over accelerator replicas). ---

    /** Build a serving engine over this session's model. The engine
     *  shares the model; it may outlive the session. */
    std::unique_ptr<serve::Engine>
    serve(serve::EngineOptions opts = {}) const;

  private:
    std::shared_ptr<const CompiledModel> model_;
    std::unique_ptr<FuncMachine> machine_; //!< lazy, installed
    /** One lazily created model per fidelity tier, beats applied. */
    std::array<std::unique_ptr<timing::TimingModel>, 3> timingModels_;
    timing::Fidelity defaultFidelity_ = timing::Fidelity::CycleAccurate;
};

} // namespace bw

#endif // BW_SERVE_SESSION_H
