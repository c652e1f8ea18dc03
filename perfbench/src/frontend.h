// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// One call surface over the three index front-ends (Tree, PartitionedIndex,
// TieredIndex), each built over MemoryPageFiles, plus access to the trees
// and page files underneath so the benchmark can read the program's own
// counters before and after the timed phase.
#ifndef PERFBENCH_FRONTEND_H_
#define PERFBENCH_FRONTEND_H_

#include <memory>
#include <string>
#include <vector>

#include "common/query.h"
#include "common/types.h"
#include "livetier/tiered_index.h"
#include "partition/partitioned_index.h"
#include "storage/page_file.h"
#include "tree/tree.h"
#include "workloads.h"

namespace perfbench {

class FrontEnd {
 public:
  virtual ~FrontEnd() = default;

  virtual void Insert(ObjectId oid, const rexp::Tpbr<2>& rec, Time now) = 0;
  virtual bool Update(ObjectId oid, const rexp::Tpbr<2>& old_rec,
                      const rexp::Tpbr<2>& rec, Time now) = 0;
  virtual bool Delete(ObjectId oid, const rexp::Tpbr<2>& rec, Time now) = 0;
  virtual void Search(const rexp::Query<2>& q,
                      std::vector<ObjectId>* out) = 0;
  virtual void Nn(const rexp::Vec<2>& p, Time t, int k,
                  std::vector<ObjectId>* out) = 0;
  // One synchronous migration step (the tiered front-end only).
  virtual void Tick() {}
  // Ends set-up: the tiered front-end drains its live tier when set-up ran
  // no migration tick (a network stream replayed through it), so that the
  // workload starts from a tree-resident population. burst-tiered's set-up
  // runs its own ticks and keeps its steady live tier.
  virtual void FinishSetup(Time /*now*/) {}
  // The index's invariant catalog at `now`.
  struct Verdict {
    std::string findings;  // Empty when the index is sound.
    // Partitioned only: routing findings fully explained by expired
    // leftover copies in a former class (see PartitionedFrontEnd).
    uint64_t expired_strays = 0;
  };
  virtual Verdict Verify(Time now) = 0;

  virtual rexp::PartitionedIndex<2>* partitioned() { return nullptr; }
  virtual rexp::TieredIndex<2>* tiered() { return nullptr; }

  const std::vector<rexp::Tree<2>*>& trees() const { return trees_; }
  const std::vector<rexp::MemoryPageFile*>& files() const { return files_; }

 protected:
  std::vector<rexp::Tree<2>*> trees_;
  std::vector<rexp::MemoryPageFile*> files_;
};

// Builds the front-end with the storage geometry of `workload`: the
// paper-ratio buffer everywhere except resident-query, whose per-class
// buffers hold their whole tree. `query_threads` sizes the partitioned
// front-end's shared fan-out pool.
std::unique_ptr<FrontEnd> MakeFrontEnd(FrontEndKind kind, Workload workload,
                                       int query_threads);

}  // namespace perfbench

#endif  // PERFBENCH_FRONTEND_H_
