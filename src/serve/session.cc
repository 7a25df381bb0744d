#include "serve/session.h"

namespace bw {

Session
Session::compile(const GirGraph &graph, const NpuConfig &cfg,
                 const CompileOptions &options)
{
    return Session(compileGir(graph, cfg, options));
}

Session::Session(CompiledModel model)
    : model_(std::make_shared<CompiledModel>(std::move(model))),
      defaultFidelity_(timing::fidelityFromEnv())
{
}

FuncMachine &
Session::machine()
{
    if (!machine_) {
        machine_ = std::make_unique<FuncMachine>(model_->cfg);
        model_->install(*machine_);
    }
    return *machine_;
}

FVec
Session::infer(std::span<const float> x)
{
    return model_->runStep(machine(), x);
}

std::vector<FVec>
Session::infer(const std::vector<FVec> &xs)
{
    return model_->runSequence(machine(), xs);
}

void
Session::reset()
{
    if (machine_)
        model_->resetRequestState(*machine_);
}

timing::TimingModel &
Session::timingModel(timing::Fidelity f)
{
    auto &slot = timingModels_[static_cast<size_t>(f)];
    if (!slot) {
        slot = timing::makeTimingModel(f, model_->cfg);
        slot->setTileBeats(model_->tileBeats);
    }
    return *slot;
}

timing::NpuTiming &
Session::timer()
{
    return static_cast<timing::CycleAccurateModel &>(
               timingModel(timing::Fidelity::CycleAccurate))
        .sim();
}

timing::TimingResult
Session::time(unsigned steps)
{
    return time(steps, defaultFidelity_);
}

timing::TimingResult
Session::time(unsigned steps, timing::Fidelity f)
{
    return timingModel(f).run(model_->prologue, model_->step, steps);
}

timing::TimingResult
Session::timeProfiled(unsigned steps,
                      std::vector<obs::ChainProfile> *chains)
{
    return timeProfiled(steps, chains, defaultFidelity_);
}

timing::TimingResult
Session::timeProfiled(unsigned steps,
                      std::vector<obs::ChainProfile> *chains,
                      timing::Fidelity f)
{
    return timingModel(f).runProfiled(model_->prologue, model_->step,
                                      steps, chains);
}

double
Session::serviceMs(unsigned steps)
{
    return serviceMs(steps, defaultFidelity_);
}

double
Session::serviceMs(unsigned steps, timing::Fidelity f)
{
    return time(steps, f).latencyMs(model_->cfg);
}

std::unique_ptr<serve::Engine>
Session::serve(serve::EngineOptions opts) const
{
    return std::make_unique<serve::Engine>(model_, std::move(opts));
}

} // namespace bw
