#include "util/thread_rank.hpp"

namespace ptucker::util {

namespace {
thread_local int t_rank = -1;
}  // namespace

void set_thread_rank(int rank) { t_rank = rank; }

int thread_rank() { return t_rank; }

}  // namespace ptucker::util
