// The three workloads. Each fills `result` with the end-to-end metrics
// (args.trace == false) or the per-layer metrics (args.trace == true),
// plus the attempted/failed counts and the outcome of its correctness
// checks.
#pragma once

#include "common.hpp"

namespace perfbench {

void run_train(const Args& args, Result& result);
void run_serve(const Args& args, Result& result);
void run_stream(const Args& args, Result& result);

}  // namespace perfbench
