#include "sim/trial_arena.hpp"

#include <memory>
#include <vector>

namespace flip {

namespace {

/// Per-thread stack of persistent arenas. Depth 0 is the common case;
/// deeper entries exist only when the helping ThreadPool wait makes a
/// thread pick up another trial while its own arena is mid-run.
struct LocalArenas {
  std::vector<std::unique_ptr<TrialArena>> arenas;
  std::size_t depth = 0;
};

LocalArenas& local_arenas() {
  thread_local LocalArenas arenas;
  return arenas;
}

}  // namespace

namespace detail {

// flip-lint: noalloc — the per-request lease path of the resident service:
// a warm acquire is a depth bump and an index, nothing else.
TrialArena* acquire_arena() {
  LocalArenas& local = local_arenas();
  if (local.depth == local.arenas.size()) {
    // flip-lint: allow(noalloc) -- cold-path growth: the first time a
    // thread reaches this nesting depth it builds the arena it will then
    // recycle forever; warm acquires never enter this branch.
    local.arenas.push_back(std::make_unique<TrialArena>());
  }
  return local.arenas[local.depth++].get();
}
// flip-lint: end-noalloc

void release_arena() noexcept { --local_arenas().depth; }

}  // namespace detail

}  // namespace flip
