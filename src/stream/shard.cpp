#include "v6class/stream/shard.h"

#include "v6class/simd/kernels.h"

namespace v6 {

void stream_shard::seal_day(int day, simd::address_block& sealed) {
    if (pending_.empty()) return;  // a day with no records for this shard

    // Sort + dedupe the staged lanes in place (radix-partitioned on the
    // hi word); (hi, lo) numeric order is byte-lexicographic address
    // order, so the result is exactly std::sort + std::unique.
    simd::sort_unique_block(pending_);
    store128_.record_day(day, pending_);
    series_.set_day(day, pending_.to_vector());
    sealed.append(pending_);
    pending_.clear();
}

}  // namespace v6
