// bench_batch_ops — batched bulk operations ablation (DESIGN.md §5.8,
// not a paper figure).
//
// FFQ's dequeue cost is dominated by the per-item fetch-and-increment on
// the shared head (§III-A — the very operation the SPSC specialization
// removes). dequeue_bulk claims a *run* of ranks with one fetch-and-add
// and enqueue_bulk publishes tail once per batch, so the coherence
// traffic on the control lines drops by the batch factor — the same
// amortization MCRingBuffer and BatchQueue apply to their SPSC control
// variables (Torquati; Preud'homme et al.).
//
// Sweep: batch size {1, 4, 16, 64} × consumers {1, 2, 4, 8} on a
// producer→consumers fan-out of 64-bit integers. batch = 1 runs the
// scalar enqueue()/dequeue() paths, so each row's speedup against the
// batch-1 row of the same consumer count is the direct amortization win.
// MCRingBuffer (control-update batching) and BatchQueue (half-buffer
// publication) run as single-consumer reference lines.
//
// Output: the standard table/CSV plus the JSON report (--json).
// BENCH_batch_ops.json is one such report, kept as a historical record
// from another machine; nothing compares against it.
#include <cstdio>
#include <string>
#include <vector>

#include "ffq/baselines/spsc/batchqueue.hpp"
#include "ffq/baselines/spsc/mcringbuffer.hpp"
#include "ffq/core/ffq.hpp"
#include "ffq/harness/driver.hpp"
#include "ffq/harness/report.hpp"
#include "ffq/harness/run.hpp"
#include "ffq/harness/stats.hpp"

using namespace ffq;
using namespace ffq::harness;

namespace {

void add_row(table& t, const char* queue, std::size_t batch,
             std::size_t consumers, const run_stats& s) {
  t.add_row({queue, std::to_string(batch), std::to_string(consumers),
             fixed(s.mean, 0), fixed(s.stddev, 0),
             oversubscribed(static_cast<int>(consumers) + 1) ? "yes" : "no"});
  std::printf("done: %-14s batch=%-3zu consumers=%zu  %s items/s\n", queue,
              batch, consumers, human_rate(s.mean).c_str());
}

int run(const bench_cli& cli) {
  std::uint64_t items = static_cast<std::uint64_t>(1'000'000 * cli.scale);
  if (items < 10000) items = 10000;
  constexpr std::size_t kCapacity = 1 << 16;
  const std::vector<std::size_t> batches = {1, 4, 16, 64};
  const std::vector<std::size_t> consumer_counts = {1, 2, 4, 8};

  table t({"queue", "batch", "consumers", "items_per_sec", "stddev",
           "oversubscribed"});

  using spmc = core::spmc_queue<std::uint64_t, core::layout_aligned>;
  using spsc = core::spsc_queue<std::uint64_t, core::layout_aligned>;

  // One producer; batch > 1 uses the bulk APIs on both sides.
  for (std::size_t consumers : consumer_counts) {
    for (std::size_t batch : batches) {
      const auto s = sample(cli.runs, [&] {
        return run_stream<spmc>(1, consumers, batch, batch, items,
                                kCapacity);
      });
      add_row(t, "ffq-spmc", batch, consumers, s);
    }
  }

  // SPSC lines: FFQ's own SPSC specialization plus the two batching
  // baselines the amortization argument is borrowed from.
  for (std::size_t batch : batches) {
    const auto s = sample(cli.runs, [&] {
      return run_stream<spsc>(1, 1, batch, batch, items, kCapacity);
    });
    add_row(t, "ffq-spsc", batch, 1, s);
  }
  for (std::size_t batch : batches) {
    const auto s = sample(cli.runs, [&] {
      baselines::mcring_queue<std::uint64_t> q(kCapacity, batch);
      return run_try_stream(q, items);
    });
    add_row(t, "mcringbuffer", batch, 1, s);
  }
  {
    const auto s = sample(cli.runs, [&] {
      baselines::batchqueue<std::uint64_t> q(kCapacity);
      return run_try_stream(q, items);
    });
    // BatchQueue's batch is its half-buffer; report it as such.
    add_row(t, "batchqueue", kCapacity / 2, 1, s);
  }

  return finish_report(
      cli, t, "batch_ops",
      "\nexpectation: ffq-spmc batch>=16 at 4+ consumers >= 1.5x its "
      "batch-1 row (head fetch-add amortized across the claimed run); "
      "ffq-spsc gains come from the single tail publication only, so "
      "they are smaller; mcringbuffer/batchqueue bound what control-"
      "variable batching buys a pure SPSC design.\n");
}

}  // namespace

int main(int argc, char** argv) {
  return run_bench(
      argc, argv, "batch_ops — bulk operation ablation",
      "Producer→consumers fan-out; batch sweeps amortize the head "
      "fetch-and-add (dequeue_bulk) and tail publication (enqueue_bulk) "
      "against the scalar FFQ paths and the SPSC batching baselines.",
      run);
}
