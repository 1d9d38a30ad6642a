// check.hpp — umbrella header for ffq::check.
//
// One include gives a TU the whole checking toolkit:
//   yield.hpp    — the FFQ_CHECK_YIELD() hook the queues compile against
//   schedule.hpp — compact replayable schedule strings
//   sched.hpp    — the controllable cooperative scheduler
//   drivers.hpp  — seeded-random and replay schedule drivers
//   run.hpp      — the one schedule loop, with fuzz and replay on top
//   oracles.hpp  — conservation, per-producer FIFO, Wing–Gong checker
//   harness.hpp  — program<Queue>: the real-queue target (FFQ_CHECK=1)
//   explore.hpp  — model_target, and preemption-bounded DFS over models
#pragma once

#include "ffq/check/drivers.hpp"
#include "ffq/check/explore.hpp"
#include "ffq/check/harness.hpp"
#include "ffq/check/oracles.hpp"
#include "ffq/check/run.hpp"
#include "ffq/check/sched.hpp"
#include "ffq/check/schedule.hpp"
#include "ffq/check/yield.hpp"
