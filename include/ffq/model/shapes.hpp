// shapes.hpp — the named model programs that check_explore and the tests
// share.
//
// Each shape is one fixed world, so a schedule printed for it replays
// against an identical program. A mutation name switches on one
// producer_mutation, consumer_mutation or alg2_mutation in every machine
// of the shape; machines the mutation does not concern ignore it.
#pragma once

#include <string>
#include <vector>

#include "ffq/model/world.hpp"

namespace ffq::model {

/// The world named `shape` (one of shape_names()) with the mutation named
/// `mutation` (one of mutation_names(), or "" for none). Throws
/// std::invalid_argument for an unknown name.
world make_shape(const std::string& shape, const std::string& mutation = "");

/// Every shape name, in table order: spsc, spmc, spmc_bulk, spmc_try,
/// mpmc, shard.
std::vector<std::string> shape_names();

/// Every mutation name.
std::vector<std::string> mutation_names();

}  // namespace ffq::model
