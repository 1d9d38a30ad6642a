// shapes.hpp — the named model programs that check_explore and the tests
// share.
//
// Each shape is one fixed world, so a schedule printed for it replays
// against an identical program. A mutation name switches on one
// producer_mutation, consumer_mutation or alg2_mutation in every machine
// of the shape; machines the mutation does not concern ignore it.
#pragma once

#include <string>

#include "ffq/model/world.hpp"

namespace ffq::model {

/// The world named `shape` (spsc, spmc, spmc_bulk, spmc_try, mpmc, shard)
/// with the mutation named `mutation` ("" for none). Throws
/// std::invalid_argument for an unknown name.
world make_shape(const std::string& shape, const std::string& mutation = "");

}  // namespace ffq::model
