// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
#include "workloads.h"

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "tree/tree.h"
#include "workload/generator.h"
#include "workload/workload_spec.h"

namespace perfbench {
namespace {

using rexp::Operation;
using rexp::Query;
using rexp::Rect;
using rexp::Rng;
using rexp::Tpbr;
using rexp::Vec;

// Operation rates that size the timed part: reports (network workloads)
// or bursts (burst-tiered) per requested second. Calibrated so one run
// measures about the requested time on a 4-core x86 container; the
// resident-query rate gives about half of it, because its query fan-out
// slows several-fold under CPU contention and a traced run replays the
// stream twice.
constexpr double kPaperReportsPerSecond = 13000;
constexpr double kResidentReportsPerSecond = 2200;
constexpr double kBurstsPerSecond = 60;

// burst-tiered shape: per burst (0.5 logical seconds apart) the fleet
// re-reports kBurstReports times, kBurstShorts one-shot reports arrive and
// kBurstDeletes earlier one-shots are withdrawn; then kBurstQueries range
// queries, each followed by a 10-NN query, read the burst's result.
constexpr int kBurstReports = 100;
constexpr int kBurstShorts = 25;
constexpr int kBurstDeletes = 2;
constexpr int kBurstQueries = 4;
constexpr double kBurstGap = 0.5;
constexpr double kFleetExpT = 120.0;
// Set-up bursts: two fleet expiration times.
constexpr uint64_t kWarmupBursts =
    static_cast<uint64_t>(2 * kFleetExpT / kBurstGap);
constexpr double kSpace = 1000.0;
constexpr double kMaxSpeed = 3.0;

uint64_t Scaled(double rate, double seconds) {
  return static_cast<uint64_t>(std::max(1.0, std::round(rate * seconds)));
}

void AddReport(Stream* s, std::vector<Op>* ops, OpKind kind, Time now,
               const Report& r) {
  ops->push_back(Op{kind, static_cast<uint32_t>(s->reports.size()), now});
  s->reports.push_back(r);
  s->max_oid = std::max(s->max_oid, r.oid);
}

// One range query followed by one 10-NN query at the range query's start
// time, centered on its region there.
void AddQueryPair(Stream* s, Time now, const Query<2>& q) {
  s->timed.push_back(
      Op{OpKind::kSearch, static_cast<uint32_t>(s->ranges.size()), now});
  s->ranges.push_back(q);
  Vec<2> center;
  for (int d = 0; d < 2; ++d) center[d] = (q.r1.lo[d] + q.r1.hi[d]) / 2;
  s->timed.push_back(
      Op{OpKind::kNn, static_cast<uint32_t>(s->nns.size()), now});
  s->nns.push_back(NnQuery{center, q.t_lo});
}

// The paper's network workload (Section 5.1 standard parameters: ExpT
// 120, UI 60, three speed classes, 0.6/0.2/0.2 query mix). The set-up
// part is every report of the first ExpT time units, the time the index
// needs to reach its steady mix of live and expired records; queries
// issued during set-up are dropped.
class NetworkSource final : public StreamSource {
 public:
  NetworkSource(uint64_t seed, uint32_t reports_per_query,
                 double reports_per_second)
      : gen_(Spec(seed, reports_per_query)),
        reports_per_second_(reports_per_second) {}

  void Setup(Stream* s) override {
    s->objects = kObjects;
    s->setup_end = rexp::WorkloadSpec{}.exp_t;
    while (gen_.Next(&op_) && op_.time < s->setup_end) {
      if (op_.kind != Operation::Kind::kQuery) Add(s, &s->setup);
    }
  }

  // Starts with the operation Setup pulled last; stops before the first
  // report past the quota, so each report's query pair is included.
  void Timed(Stream* s, double seconds) override {
    const uint64_t quota = Scaled(reports_per_second_, seconds);
    uint64_t reports = 0;
    do {
      if (op_.kind == Operation::Kind::kQuery) {
        AddQueryPair(s, op_.time, op_.query);
      } else {
        if (reports == quota) break;
        Add(s, &s->timed);
        ++reports;
      }
    } while (gen_.Next(&op_));
  }

 private:
  static rexp::WorkloadSpec Spec(uint64_t seed, uint32_t reports_per_query) {
    rexp::WorkloadSpec spec;
    spec.target_objects = kObjects;
    spec.total_insertions = UINT64_MAX;
    spec.insertions_per_query = reports_per_query;
    spec.seed = seed;
    return spec;
  }

  void Add(Stream* s, std::vector<Op>* ops) {
    const bool insert = op_.kind == Operation::Kind::kInsert;
    AddReport(s, ops, insert ? OpKind::kInsert : OpKind::kUpdate, op_.time,
              Report{op_.oid, op_.old_record, op_.record});
    s->end = op_.time;
  }

  rexp::WorkloadGenerator gen_;
  const double reports_per_second_;
  Operation op_;
};

Vec<2> RandomPoint(Rng* rng) {
  return Vec<2>{rng->Uniform(0, kSpace), rng->Uniform(0, kSpace)};
}

Vec<2> RandomVelocity(Rng* rng) {
  return Vec<2>{rng->Uniform(-kMaxSpeed, kMaxSpeed),
                rng->Uniform(-kMaxSpeed, kMaxSpeed)};
}

// Heavy-tailed one-shot lifetime: Pareto with scale 0.5 and shape 1.2
// (median about 0.9, one in sixteen outlives 5), capped at 60.
Time ShortLifetime(Rng* rng) {
  const double u = 1.0 - rng->NextDouble();  // (0, 1]
  return std::min(60.0, 0.5 * std::pow(u, -1.0 / 1.2));
}

// The live tier's design case, after bench/bench_livetier.cc: a
// long-lived fleet re-reports in bursts, each burst also carries one-shot
// reports with heavy-tailed short expirations, and a few one-shots are
// withdrawn again. The starting population is the fleet, inserted at time
// 0. Migration ticks run once per logical second.
class BurstSource final : public StreamSource {
 public:
  explicit BurstSource(uint64_t seed) : rng_(seed), last_(kObjects) {}

  // The fleet, inserted at time 0, then kWarmupBursts bursts without
  // queries, so that the timed part starts after the fleet's first
  // records have expired and the index holds its steady mix.
  void Setup(Stream* s) override {
    s->objects = kObjects;
    for (uint64_t i = 0; i < kObjects; ++i) {
      last_[i] = rexp::MakeMovingPoint<2>(RandomPoint(&rng_),
                                          RandomVelocity(&rng_), 0.0,
                                          kFleetExpT);
      AddReport(s, &s->setup, OpKind::kInsert, 0.0,
                Report{static_cast<ObjectId>(i), {}, last_[i]});
    }
    for (uint64_t b = 1; b <= kWarmupBursts; ++b) Burst(s, &s->setup, b, false);
    s->setup_end = s->end;
  }

  void Timed(Stream* s, double seconds) override {
    const uint64_t bursts = Scaled(kBurstsPerSecond, seconds);
    for (uint64_t b = 1; b <= bursts; ++b) {
      Burst(s, &s->timed, kWarmupBursts + b, true);
    }
  }

 private:
  void Burst(Stream* s, std::vector<Op>* ops, uint64_t b, bool queries) {
    const Time now = kBurstGap * static_cast<double>(b);
    if (b % 2 == 0) ops->push_back(Op{OpKind::kTick, 0, now});
    // Deletes withdraw one-shots of the previous burst, alive or not.
    for (int i = 0; i < kBurstDeletes && !prev_shorts_.empty(); ++i) {
      const size_t pick = rng_.UniformInt(prev_shorts_.size());
      AddReport(s, ops, OpKind::kDelete, now, prev_shorts_[pick]);
      prev_shorts_.erase(prev_shorts_.begin() + static_cast<long>(pick));
    }
    std::vector<Report> shorts;
    for (int r = 0; r < kBurstReports; ++r) {
      const ObjectId oid = static_cast<ObjectId>(rng_.UniformInt(kObjects));
      Vec<2> pos, vel;
      for (int d = 0; d < 2; ++d) {
        pos[d] = last_[oid].LoAt(d, now) + rng_.Uniform(-0.5, 0.5);
        vel[d] = std::clamp(last_[oid].vlo[d] + rng_.Uniform(-0.2, 0.2),
                            -kMaxSpeed, kMaxSpeed);
        // An object that has left the space turns back at its border, so
        // the fleet's density over the space (where the one-shots and
        // queries fall) stays the same through the run instead of thinning
        // as the fleet drifts apart.
        if (pos[d] < 0) {
          pos[d] = std::min(-pos[d], kSpace);
          vel[d] = std::abs(vel[d]);
        } else if (pos[d] > kSpace) {
          pos[d] = std::max(2 * kSpace - pos[d], 0.0);
          vel[d] = -std::abs(vel[d]);
        }
      }
      const Tpbr<2> fresh =
          rexp::MakeMovingPoint<2>(pos, vel, now, now + kFleetExpT);
      AddReport(s, ops, OpKind::kUpdate, now, Report{oid, last_[oid], fresh});
      last_[oid] = fresh;
      if (r % (kBurstReports / kBurstShorts) == 0) {
        const Report one_shot{next_short_++, {},
                              rexp::MakeMovingPoint<2>(
                                  RandomPoint(&rng_), RandomVelocity(&rng_),
                                  now, now + ShortLifetime(&rng_))};
        AddReport(s, ops, OpKind::kInsert, now, one_shot);
        shorts.push_back(one_shot);
      }
    }
    for (int q = 0; queries && q < kBurstQueries; ++q) {
      AddQueryPair(s, now, RandomQuery(now));
    }
    prev_shorts_ = std::move(shorts);
    s->end = now;
  }

  // The network workload's query shape: a 50 x 50 square, temporal part
  // in [now, now + W], timeslice/window/moving in 0.6/0.2/0.2.
  Query<2> RandomQuery(Time now) {
    const rexp::WorkloadSpec spec;
    const double side = spec.QuerySide();
    double ta = now + rng_.Uniform(0, spec.QueryWindow());
    double tb = now + rng_.Uniform(0, spec.QueryWindow());
    if (ta > tb) std::swap(ta, tb);
    const double roll = rng_.NextDouble();
    if (roll < spec.p_timeslice) {
      return Query<2>::Timeslice(Rect<2>::Cube(RandomPoint(&rng_), side), ta);
    }
    if (roll < spec.p_timeslice + spec.p_window) {
      return Query<2>::Window(Rect<2>::Cube(RandomPoint(&rng_), side), ta, tb);
    }
    const Tpbr<2>& track = last_[rng_.UniformInt(kObjects)];
    return Query<2>::Moving(Rect<2>::Cube(track.PointAt(ta), side),
                            Rect<2>::Cube(track.PointAt(tb), side), ta, tb);
  }

  Rng rng_;
  std::vector<Tpbr<2>> last_;
  ObjectId next_short_ = static_cast<ObjectId>(kObjects);
  std::vector<Report> prev_shorts_;
};

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "paper-network") {
    *out = Workload::kPaperNetwork;
  } else if (name == "resident-query") {
    *out = Workload::kResidentQuery;
  } else if (name == "burst-tiered") {
    *out = Workload::kBurstTiered;
  } else {
    return false;
  }
  return true;
}

bool ParseFrontEnd(const std::string& name, FrontEndKind* out) {
  for (FrontEndKind k :
       {FrontEndKind::kTree, FrontEndKind::kPartitioned,
        FrontEndKind::kTiered}) {
    if (name == FrontEndName(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

const char* FrontEndName(FrontEndKind kind) {
  switch (kind) {
    case FrontEndKind::kTree:
      return "tree";
    case FrontEndKind::kPartitioned:
      return "partitioned";
    case FrontEndKind::kTiered:
      return "tiered";
  }
  return "?";
}

FrontEndKind DefaultFrontEnd(Workload w) {
  switch (w) {
    case Workload::kPaperNetwork:
      return FrontEndKind::kTree;
    case Workload::kResidentQuery:
      return FrontEndKind::kPartitioned;
    case Workload::kBurstTiered:
      return FrontEndKind::kTiered;
  }
  return FrontEndKind::kTree;
}

std::unique_ptr<StreamSource> StreamSource::Make(Workload w,
                                                  uint64_t seed) {
  switch (w) {
    case Workload::kPaperNetwork:
      return std::make_unique<NetworkSource>(seed, 100,
                                              kPaperReportsPerSecond);
    case Workload::kResidentQuery:
      return std::make_unique<NetworkSource>(seed, 1,
                                              kResidentReportsPerSecond);
    case Workload::kBurstTiered:
      return std::make_unique<BurstSource>(seed);
  }
  return nullptr;
}

}  // namespace perfbench
