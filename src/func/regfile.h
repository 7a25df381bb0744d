/**
 * @file
 * Architectural storage of the functional simulator: vector register
 * files (native-vector entries, float16 storage semantics), the matrix
 * register file (BFP-quantized native tiles), DRAM and network queues.
 */

#ifndef BW_FUNC_REGFILE_H
#define BW_FUNC_REGFILE_H

#include <deque>
#include <vector>

#include "bfp/bfp.h"
#include "common/logging.h"
#include "tensor/tensor.h"

namespace bw {

/**
 * A vector register file: @p entries native vectors of @p native_dim
 * elements. Values are stored with float16 rounding applied on write,
 * matching the hardware's half-precision vector datapath.
 */
class VectorRegFile
{
  public:
    VectorRegFile(unsigned entries, unsigned native_dim,
                  std::string name = "vrf");

    unsigned entries() const { return entries_; }
    unsigned nativeDim() const { return nativeDim_; }

    /** Read @p count consecutive entries starting at @p addr. */
    FVec read(uint32_t addr, uint32_t count = 1) const;

    /**
     * Write @p data (count * nativeDim elements) into consecutive
     * entries starting at @p addr, rounding each element to float16.
     */
    void write(uint32_t addr, std::span<const float> data);

    /** Zero all entries. */
    void clear();

  private:
    void checkRange(uint32_t addr, uint32_t count) const;

    unsigned entries_;
    unsigned nativeDim_;
    std::string name_;
    std::vector<float> data_;
};

/**
 * A BFP-quantized native matrix tile: nativeDim rows, each an
 * independently quantized BFP block of nativeDim elements (the paper's
 * per-native-vector shared exponent granularity).
 */
class QuantTile
{
  public:
    QuantTile() = default;

    /** Quantize a native_dim x native_dim float tile. */
    QuantTile(const FMat &tile, const BfpFormat &fmt);

    bool valid() const { return !rows_.empty(); }
    size_t dim() const { return rows_.size(); }
    const BfpBlock &row(size_t r) const { return rows_[r]; }

    /** Dequantize back to a float matrix (for inspection/tests). */
    FMat dequant() const;

  private:
    std::vector<BfpBlock> rows_;
};

/**
 * The matrix register file: a fixed number of native-tile entries,
 * written only from DRAM or the network, read only by mv_mul.
 */
class MatrixRegFile
{
  public:
    MatrixRegFile(unsigned tiles, unsigned native_dim);

    unsigned tiles() const { return tiles_; }

    /** Store a quantized tile at entry @p addr. */
    void write(uint32_t addr, QuantTile tile);

    /** Fetch entry @p addr; throws if the entry was never written. */
    const QuantTile &read(uint32_t addr) const;

    bool isWritten(uint32_t addr) const;

  private:
    unsigned tiles_;
    unsigned nativeDim_;
    std::vector<QuantTile> data_;
};

/**
 * Simplified accelerator-local DRAM: separately indexed native-vector
 * and native-tile regions (entry-granularity addressing; the timing
 * model accounts for byte bandwidth independently).
 */
class DramStore
{
  public:
    DramStore(uint64_t capacity_bytes, unsigned native_dim);

    FVec readVector(uint32_t addr, uint32_t count) const;
    void writeVector(uint32_t addr, std::span<const float> data);

    const FMat &readTile(uint32_t addr) const;
    void writeTile(uint32_t addr, FMat tile);

    uint64_t capacityBytes() const { return capacityBytes_; }

  private:
    uint64_t capacityBytes_;
    unsigned nativeDim_;
    std::vector<FVec> vectors_;
    std::vector<FMat> tiles_;
};

/**
 * Network input/output queues. Entries are native vectors (v_rd/v_wr
 * NetQ) or float native tiles (m_rd NetQ, quantized on the m_wr into
 * the MRF).
 */
class NetQueues
{
  public:
    explicit NetQueues(unsigned native_dim) : nativeDim_(native_dim) {}

    /** Host: enqueue one native vector for the NPU to read. */
    void pushInputVector(FVec v);
    /** Host: enqueue a native tile (weight initialization). */
    void pushInputTile(FMat tile);

    /** NPU: pop @p count native vectors (concatenated). */
    FVec popInput(uint32_t count);
    /** NPU: pop one native tile. */
    FMat popInputTile();

    /** NPU: push an output native vector. */
    void pushOutput(FVec v);
    /** Host: pop @p count output native vectors (concatenated). */
    FVec popOutput(uint32_t count);

  private:
    unsigned nativeDim_;
    std::deque<FVec> in_;
    std::deque<FVec> out_;
    std::deque<FMat> inTiles_;
};

} // namespace bw

#endif // BW_FUNC_REGFILE_H
