#include "sim/trial_arena.hpp"

#include <stdexcept>

namespace flip {

namespace {

struct LocalArena {
  TrialArena arena;
  bool leased = false;
};

LocalArena& local_arena() {
  thread_local LocalArena local;
  return local;
}

}  // namespace

TrialArenaLease::TrialArenaLease() {
  LocalArena& local = local_arena();
  if (local.leased) {
    throw std::logic_error(
        "TrialArenaLease: this thread's arena is already leased");
  }
  local.leased = true;
  arena_ = &local.arena;
}

TrialArenaLease::~TrialArenaLease() { local_arena().leased = false; }

}  // namespace flip
