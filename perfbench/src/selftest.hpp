#pragma once

namespace perfbench {

/// Runs the benchmark's self-tests, printing each failure; returns the
/// number of failures.
int run_selftests();

}  // namespace perfbench
