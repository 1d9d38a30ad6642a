// pipeline — pipeline parallelism over FFQ SPSC queues (the use case of
// the related-work SPSC designs: FastForward, MCRingBuffer, BatchQueue).
//
//   build/examples/pipeline [items]
//
// items >= 1; anything else is a usage error (exit 2).
//
// A 3-stage text-processing pipeline:
//   stage 1 (generate)  -> produces pseudo-random "records"
//   stage 2 (transform) -> checksums and filters them
//   stage 3 (aggregate) -> folds results into a final digest
//
// Each stage pair is connected by one spsc_queue; close() propagates
// end-of-stream down the pipeline.
#include <cstdint>
#include <cstdio>
#include <thread>

#include "ffq/core/ffq.hpp"
#include "ffq/harness/parse.hpp"
#include "ffq/runtime/rng.hpp"
#include "ffq/runtime/timing.hpp"

namespace {

struct record {
  std::uint64_t id = 0;
  std::uint64_t payload = 0;
};

struct digest {
  std::uint64_t id = 0;
  std::uint64_t checksum = 0;
};

constexpr std::uint64_t fold(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

int main(int argc, char** argv) {
  const auto item_arg =
      ffq::harness::parse_arg(argc, argv, 1, 1'000'000, 1, UINT64_MAX);
  if (argc > 2 || !item_arg) {
    std::fprintf(stderr, "usage: pipeline [items >= 1]\n");
    return 2;
  }
  const std::uint64_t items = *item_arg;

  ffq::core::spsc_queue<record> stage12(1 << 12);
  ffq::core::spsc_queue<digest> stage23(1 << 12);

  ffq::runtime::stopwatch sw;

  std::thread generate([&] {
    ffq::runtime::xoshiro256ss rng(2017);
    for (std::uint64_t i = 0; i < items; ++i) {
      stage12.enqueue(record{i, rng()});
    }
    stage12.close();
  });

  std::thread transform([&] {
    record r;
    std::uint64_t dropped = 0;
    while (stage12.dequeue(r)) {
      const std::uint64_t sum = fold(r.payload);
      if ((sum & 0xf) == 0) {
        ++dropped;  // filter: drop 1/16 of records
        continue;
      }
      stage23.enqueue(digest{r.id, sum});
    }
    stage23.close();
    std::printf("transform: dropped %llu records\n",
                static_cast<unsigned long long>(dropped));
  });

  std::uint64_t final_digest = 0;
  std::uint64_t passed = 0;
  std::thread aggregate([&] {
    digest d;
    while (stage23.dequeue(d)) {
      final_digest ^= d.checksum + d.id;
      ++passed;
    }
  });

  generate.join();
  transform.join();
  aggregate.join();
  const double secs = sw.seconds();

  std::printf("pipeline: %llu records in %.3f s (%.1f M records/s)\n",
              static_cast<unsigned long long>(items), secs,
              static_cast<double>(items) / secs / 1e6);
  std::printf("passed %llu, digest %016llx\n",
              static_cast<unsigned long long>(passed),
              static_cast<unsigned long long>(final_digest));
  return 0;
}
