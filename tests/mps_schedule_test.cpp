/// \file mps_schedule_test.cpp
/// \brief Collective-schedule verification (Parcoach-style, always on):
/// every rank fingerprints its (op, comm-context, bytes) sequence, and
/// Runtime::run flags ranks whose schedules diverged — the bug class where
/// one rank skips a broadcast and the job deadlocks or leaks messages with
/// no indication of *which* collective went wrong.

#include <gtest/gtest.h>

#include <string>

#include "mps/collectives.hpp"
#include "mps/runtime.hpp"
#include "mps/stats.hpp"
#include "mps/universe.hpp"
#include "test_utils.hpp"
#include "util/error.hpp"

namespace ptucker {
namespace {

using testing::run_ranks;  // short recv deadline

TEST(Schedule, MatchingScheduleVerifiesClean) {
  for (int p : {1, 2, 3, 4}) {
    EXPECT_NO_THROW(run_ranks(p, [](mps::Comm& comm) {
      std::vector<double> buf(8, comm.rank() == 0 ? 3.0 : 0.0);
      mps::broadcast(comm, std::span<double>(buf), 0);
      double s = buf[0];
      s = mps::allreduce_scalar(comm, s);
      comm.barrier();
      EXPECT_DOUBLE_EQ(s, 3.0 * comm.size());
    }));
  }
}

TEST(Schedule, DivergentBroadcastIsFlagged) {
  // Rank 0 broadcasts (eager send: it completes), rank 1 silently skips it.
  // The leftover message would also fail the quiescence check at finalize,
  // but the schedule check runs first and its diagnosis names the
  // collective.
  try {
    run_ranks(2, [](mps::Comm& comm) {
      if (comm.rank() == 0) {
        std::vector<double> buf(4, 1.0);
        mps::broadcast(comm, std::span<double>(buf), 0);
      }
    });
    FAIL() << "divergent schedule not flagged";
  } catch (const mps::ScheduleMismatchError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("broadcast"), std::string::npos) << what;
    EXPECT_NE(what.find("rank"), std::string::npos) << what;
  }
}

TEST(Schedule, SilentRankIsFlaggedEvenWithZeroCalls) {
  // The context is seeded at communicator creation, so a rank that makes NO
  // collective calls at all still has a (calls == 0) entry to compare —
  // silence is detectable, not just different noise. Broadcast is used
  // because its sends are eager: the participating ranks complete even
  // though rank 2 never shows up.
  EXPECT_THROW(run_ranks(3,
                         [](mps::Comm& comm) {
                           if (comm.rank() == 2) return;  // silent rank
                           std::vector<double> buf(4, 1.0 * comm.rank());
                           mps::broadcast(comm, std::span<double>(buf), 0);
                         }),
               mps::ScheduleMismatchError);
}

TEST(Schedule, UnreceivedMessageFailsTheQuiescenceCheck) {
  // The schedule check fingerprints collectives only: a point-to-point
  // message no rank receives passes it, and the quiescence check behind it
  // fails the run with the generic leaked-message InternalError
  // (ScheduleMismatchError is not an InternalError).
  try {
    run_ranks(2, [](mps::Comm& comm) {
      if (comm.rank() == 0) {
        const double v = 1.0;
        comm.send(std::span<const double>(&v, 1), 1, 3);
      }
    });
    FAIL() << "unreceived message not flagged";
  } catch (const InternalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("still holds"), std::string::npos) << what;
  }
}

TEST(Schedule, SplitColorsMayRunDifferentSchedules) {
  // Ranks in different split colors legitimately run different collective
  // sequences on their sub-communicators; only members of the SAME context
  // are compared.
  EXPECT_NO_THROW(run_ranks(4, [](mps::Comm& comm) {
    mps::Comm sub = comm.split(comm.rank() % 2, comm.rank());
    if (comm.rank() % 2 == 0) {
      sub.barrier();
    } else {
      double v = 1.0;
      v = mps::allreduce_scalar(sub, v);
      EXPECT_DOUBLE_EQ(v, 2.0);
      sub.barrier();
    }
    comm.barrier();  // the world schedule itself must still agree
  }));
}

TEST(Schedule, ByteCountMismatchIsFlagged) {
  // Unit-level: same op sequence but different payload sizes hash apart.
  // Driven through Universe directly because actually exchanging
  // mismatched buffers would fault inside the transport before finalize.
  mps::Universe u(2);
  u.fingerprint_seed(0, 7);
  u.fingerprint_seed(1, 7);
  u.fingerprint_record(0, 7, mps::OpKind::AllReduce, 64);
  u.fingerprint_record(1, 7, mps::OpKind::AllReduce, 128);
  EXPECT_THROW(u.verify_schedule(), mps::ScheduleMismatchError);
  u.reset_schedule();
  u.fingerprint_seed(0, 7);
  u.fingerprint_seed(1, 7);
  u.fingerprint_record(0, 7, mps::OpKind::AllReduce, 64);
  u.fingerprint_record(1, 7, mps::OpKind::AllReduce, 64);
  EXPECT_NO_THROW(u.verify_schedule());
}

TEST(Schedule, NestedCollectivesFingerprintOnlyTheOuterOp) {
  // allreduce is built from a ring reduce-scatter and all-gather (or
  // reduce+broadcast) internally; the fingerprint must record ONE
  // allreduce, not its guts, so algorithm choice can't masquerade as
  // divergence.
  run_ranks(2, [](mps::Comm& comm) {
    double v = 1.0;
    v = mps::allreduce_scalar(comm, v);
    EXPECT_DOUBLE_EQ(v, 2.0);
    const auto& contexts =
        comm.universe().schedule_fingerprints(comm.rank());
    std::uint64_t calls = 0;
    for (const auto& [ctx, fp] : contexts) calls += fp.calls;
    EXPECT_EQ(calls, 1u);
  });
}

TEST(Schedule, AsyncMatchingScheduleVerifiesClean) {
  // Nonblocking ops fingerprint at INITIATION, so a matching istart/wait
  // schedule verifies exactly like its blocking counterpart.
  EXPECT_NO_THROW(run_ranks(3, [](mps::Comm& comm) {
    std::vector<double> buf(6, comm.rank() == 0 ? 2.0 : 0.0);
    mps::CollectiveHandle hb =
        mps::ibroadcast(comm, std::span<double>(buf), 0);
    std::vector<double> sum(4, 1.0);
    mps::CollectiveHandle hs = mps::iallreduce(comm, std::span<double>(sum));
    hs.wait();
    hb.wait();
    EXPECT_DOUBLE_EQ(buf[0], 2.0);
    EXPECT_DOUBLE_EQ(sum[0], 1.0 * comm.size());
    comm.barrier();
  }));
}

TEST(Schedule, AsyncDivergenceIsFlaggedWithOpNamed) {
  // Rank 0 initiates-and-completes an ibroadcast (its sends are eager, so
  // it finishes without rank 1); rank 1 silently skips it. Because i-ops
  // record their fingerprint at initiation, the verifier names the
  // collective just as it does for the blocking form.
  try {
    run_ranks(2, [](mps::Comm& comm) {
      if (comm.rank() == 0) {
        std::vector<double> buf(4, 1.0);
        mps::ibroadcast(comm, std::span<double>(buf), 0).wait();
      }
    });
    FAIL() << "divergent async schedule not flagged";
  } catch (const mps::ScheduleMismatchError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("broadcast"), std::string::npos) << what;
    EXPECT_NE(what.find("rank"), std::string::npos) << what;
  }
}

TEST(Schedule, LeakedInflightHandleIsFlaggedWithOpNamed) {
  // A handle destroyed before its op completes is a silent-data-loss bug
  // (the transfer may be half done). Non-root ranks initiate an ibroadcast
  // the root never sends for — the recv can never complete — and abandon
  // the handle. Finalize must fail loudly, naming the op and the rank, and
  // the leak check runs BEFORE schedule verification so the report is about
  // the leak even though the schedules also diverged.
  try {
    testing::run_ranks(2, [](mps::Comm& comm) {
      if (comm.rank() == 0) return;  // root never initiates
      std::vector<double> buf(4, 0.0);
      mps::CollectiveHandle h =
          mps::ibroadcast(comm, std::span<double>(buf), 0);
      EXPECT_FALSE(h.test());
      // h goes out of scope still in flight.
    });
    FAIL() << "leaked in-flight handle not flagged";
  } catch (const InternalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("broadcast on rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("in flight"), std::string::npos) << what;
    EXPECT_NE(what.find("wait()"), std::string::npos) << what;
  }
}

TEST(Schedule, ResetsBetweenRuns) {
  // Each Runtime::run starts from a clean slate: a schedule from run 1 must
  // not be compared against run 2's.
  mps::Runtime rt(2);
  rt.set_recv_timeout_ms(30000);
  rt.run([](mps::Comm& comm) { comm.barrier(); });
  EXPECT_NO_THROW(rt.run([](mps::Comm& comm) {
    double v = 1.0;
    (void)mps::allreduce_scalar(comm, v);
  }));
}

}  // namespace
}  // namespace ptucker
