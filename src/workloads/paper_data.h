/**
 * @file
 * Published numbers from the paper's tables and figures, embedded as a
 * dataset so every benchmark harness can print measured-vs-published
 * side by side. All values are transcribed from the ISCA 2018 paper.
 */

#ifndef BW_WORKLOADS_PAPER_DATA_H
#define BW_WORKLOADS_PAPER_DATA_H

#include <optional>
#include <string>
#include <vector>

#include "workloads/deepbench.h"

namespace bw {
namespace paper {

/** One Table I row. */
struct TableOneRow
{
    std::string model;     //!< "LSTM", "GRU", "CNN 3x3", "CNN 1x1"
    std::string dimension;
    double opsMillion;     //!< "Ops" column, in millions
    unsigned udmCycles;
    unsigned sdmCycles;
    unsigned bwCycles;     //!< BW NPU column (per step / per layer)
    std::string data;      //!< data footprint as printed
};
std::vector<TableOneRow> tableOne();

/** One Table III row (hardware implementation results). */
struct TableThreeRow
{
    std::string instance; //!< BW_S5 / BW_A10 / BW_S10
    unsigned mvTiles, lanes, nativeDim, mrfSize, mfus;
    std::string device;
    unsigned alms;
    double almPct;
    unsigned m20ks;
    double m20kPct;
    unsigned dsps;
    double dspPct;
    double freqMhz;
    double peakTflops;
};
std::vector<TableThreeRow> tableThree();

/** One Table V row: the three devices' results for one benchmark. */
struct TableFiveRow
{
    RnnLayerSpec layer;
    double sdmMs;
    double bwMs;
    double bwTflops;
    double bwUtilPct;
    double gpuMs;
    double gpuTflops;
    double gpuUtilPct;
};
std::vector<TableFiveRow> tableFive();

/** Table IV / Table VI scalar facts. */
struct GpuSpec
{
    std::string name;
    double peakTflops;
    double tdpWatts;
    std::string precision;
    std::string process;
};
GpuSpec titanXpSpec(); //!< Table IV

/** Table VI: ResNet-50 featurizer at batch 1. */
struct TableSixRow
{
    std::string device;
    double ips;
    double latencyMs;
};
std::vector<TableSixRow> tableSix();

/** BW_S10 measured peak power (Section VII-B4). */
double bwS10PowerWatts();

/** Paper-reported power efficiency at high utilization (GFLOPS/W). */
double bwS10GflopsPerWatt();

} // namespace paper
} // namespace bw

#endif // BW_WORKLOADS_PAPER_DATA_H
