// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// The benchmark's three workloads as pre-generated, time-ordered streams of
// front-end calls. A stream is a pure function of (workload, seed,
// seconds): the same arguments give byte-identical operations, so page
// counts repeat exactly between runs of a single-threaded workload.
//
// Every stream has a set-up part (the starting population, applied before
// timing) and a timed part, generated in that order by a StreamSource so
// that the set-up can run before the timed part exists. `seconds` scales
// the timed part through a fixed per-workload operation rate, never
// through a clock, so the amount of work is known before the first timed
// call is made.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/query.h"
#include "common/types.h"
#include "common/vec.h"
#include "tpbr/tpbr.h"

namespace perfbench {

using rexp::ObjectId;
using rexp::Time;

enum class Workload { kPaperNetwork, kResidentQuery, kBurstTiered };

// Front-ends a stream can be replayed through. Each workload has its own;
// the others are available for side-by-side diagnosis (--frontend).
enum class FrontEndKind { kTree, kPartitioned, kTiered };

bool ParseWorkload(const std::string& name, Workload* out);
bool ParseFrontEnd(const std::string& name, FrontEndKind* out);
const char* FrontEndName(FrontEndKind kind);
FrontEndKind DefaultFrontEnd(Workload w);

enum class OpKind : uint8_t { kInsert, kUpdate, kDelete, kSearch, kNn, kTick };

// One front-end call. `arg` indexes Stream::reports (insert, update,
// delete), Stream::ranges (search) or Stream::nns (nn).
struct Op {
  OpKind kind = OpKind::kTick;
  uint32_t arg = 0;
  Time now = 0;
};

// kInsert: `record` is new. kUpdate: `old_record` is replaced by `record`.
// kDelete: `record` is the record to delete.
struct Report {
  ObjectId oid = 0;
  rexp::Tpbr<2> old_record;
  rexp::Tpbr<2> record;
};

struct NnQuery {
  rexp::Vec<2> point;
  Time t = 0;
};

inline constexpr int kNnK = 10;

struct Stream {
  std::vector<Op> setup;
  std::vector<Op> timed;
  std::vector<Report> reports;
  std::vector<rexp::Query<2>> ranges;
  std::vector<NnQuery> nns;
  Time setup_end = 0;  // Logical time at which the set-up part ends.
  Time end = 0;        // Logical time of the last operation.
  ObjectId max_oid = 0;
  // Objects in the starting population (the shape the README reports).
  uint64_t objects = 0;
};

// Storage geometry shared by all workloads: the paper's 50-frame buffer
// over 100,000 objects, scaled to the benchmark's population the way the
// figure benches scale it (1 KiB pages below half scale).
inline constexpr uint64_t kObjects = 10000;
inline constexpr double kScale = static_cast<double>(kObjects) / 100000.0;
inline constexpr uint32_t kPageSize = 1024;
inline constexpr uint32_t kPaperRatioFrames =
    std::max<uint32_t>(16, static_cast<uint32_t>(50 * kScale + 0.5));
// Per-class buffer of resident-query: larger than any class tree.
inline constexpr uint32_t kResidentFrames = 4096;
inline constexpr int kPartitions = 4;

class StreamSource {
 public:
  static std::unique_ptr<StreamSource> Make(Workload w, uint64_t seed);
  virtual ~StreamSource() = default;
  // Appends the set-up part to an empty stream.
  virtual void Setup(Stream* s) = 0;
  // Appends the timed part, sized for `seconds`.
  virtual void Timed(Stream* s, double seconds) = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
