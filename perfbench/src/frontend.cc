// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
#include "frontend.h"

#include <cstdio>
#include <set>
#include <utility>

#include "sched/thread_pool.h"
#include "verify/verifier.h"

namespace perfbench {
namespace {

using rexp::MemoryPageFile;
using rexp::Query;
using rexp::Tpbr;
using rexp::TreeConfig;
using rexp::Vec;

std::string Findings(const rexp::verify::Report& report) {
  return report.ok() ? std::string() : report.ToString();
}

TreeConfig ConfigFor(Workload workload) {
  TreeConfig config = TreeConfig::Rexp();
  config.page_size = kPageSize;
  config.buffer_frames = workload == Workload::kResidentQuery
                             ? kResidentFrames
                             : kPaperRatioFrames;
  return config;
}

class TreeFrontEnd final : public FrontEnd {
 public:
  explicit TreeFrontEnd(const TreeConfig& config)
      : file_(config.page_size), tree_(config, &file_) {
    trees_ = {&tree_};
    files_ = {&file_};
  }
  void Insert(ObjectId oid, const Tpbr<2>& rec, Time now) override {
    tree_.Insert(oid, rec, now);
  }
  bool Update(ObjectId oid, const Tpbr<2>& old_rec, const Tpbr<2>& rec,
              Time now) override {
    return tree_.Update(oid, old_rec, rec, now);
  }
  bool Delete(ObjectId oid, const Tpbr<2>& rec, Time now) override {
    return tree_.Delete(oid, rec, now);
  }
  void Search(const Query<2>& q, std::vector<ObjectId>* out) override {
    tree_.Search(q, out);
  }
  void Nn(const Vec<2>& p, Time t, int k,
          std::vector<ObjectId>* out) override {
    tree_.NearestNeighbors(p, t, k, out);
  }
  Verdict Verify(Time now) override { return {Findings(tree_.Verify(now))}; }

 private:
  MemoryPageFile file_;
  rexp::Tree<2> tree_;
};

class PartitionedFrontEnd final : public FrontEnd {
 public:
  PartitionedFrontEnd(const TreeConfig& config, int query_threads)
      : pool_(query_threads) {
    std::vector<rexp::PageFile*> files;
    for (int i = 0; i < kPartitions; ++i) {
      owned_files_.push_back(std::make_unique<MemoryPageFile>(config.page_size));
      files.push_back(owned_files_.back().get());
      files_.push_back(owned_files_.back().get());
    }
    rexp::PartitionedOptions options;
    options.partitions = kPartitions;
    index_ = std::make_unique<rexp::PartitionedIndex<2>>(config, files,
                                                         options, &pool_);
    for (int i = 0; i < kPartitions; ++i) trees_.push_back(index_->tree(i));
  }
  void Insert(ObjectId oid, const Tpbr<2>& rec, Time now) override {
    index_->Insert(oid, rec, now);
  }
  bool Update(ObjectId oid, const Tpbr<2>& old_rec, const Tpbr<2>& rec,
              Time now) override {
    return index_->Update(oid, old_rec, rec, now);
  }
  bool Delete(ObjectId oid, const Tpbr<2>& rec, Time now) override {
    return index_->Delete(oid, rec, now);
  }
  void Search(const Query<2>& q, std::vector<ObjectId>* out) override {
    index_->Search(q, out);
  }
  void Nn(const Vec<2>& p, Time t, int k,
          std::vector<ObjectId>* out) override {
    index_->NearestNeighbors(p, t, k, out);
  }
  // A boundary-crossing update whose old record has already expired
  // cannot delete it (PartitionedIndex::MigrateLocked deletes with
  // see_expired=false), so the expired copy stays in the former class
  // tree until purged, and Verify reports each such copy as a routing
  // finding although every answer is right. Those findings are counted
  // apart, and only when the benchmark's own leaf walk accounts for
  // every one of them; any other finding, or a stray copy that is still
  // live, fails the run.
  Verdict Verify(Time now) override {
    const rexp::verify::Report report = index_->Verify(now);
    if (report.ok()) return {};
    std::set<std::pair<ObjectId, int>> strays;
    bool live_stray = false;
    for (int i = 0; i < kPartitions; ++i) {
      rexp::Tree<2>* tree = index_->tree(i);
      if (tree->root() == rexp::kInvalidPageId) continue;
      std::vector<rexp::PageId> todo{tree->root()};
      while (!todo.empty()) {
        const rexp::Node<2> node = tree->ReadNodeForTest(todo.back());
        todo.pop_back();
        for (const auto& e : node.entries) {
          if (!node.IsLeaf()) {
            todo.push_back(e.id);
            continue;
          }
          const int home = index_->ClassOfForTest(e.id);
          if (home >= 0 && home != i) {
            strays.emplace(e.id, i);
            live_stray = live_stray || e.region.LiveAt(now);
          }
        }
      }
    }
    bool explained = !live_stray && report.TotalFindings() == strays.size();
    for (const rexp::verify::Finding& f : report.findings) {
      unsigned oid = 0;
      int cls = -1, home = -1;
      explained =
          explained && f.check == rexp::verify::CheckId::kPartitionRouting &&
          std::sscanf(f.detail.c_str(),
                      "oid %u mapped to class %d but physically present in "
                      "class %d",
                      &oid, &home, &cls) == 3 &&
          strays.count({static_cast<ObjectId>(oid), cls}) == 1;
    }
    if (!explained) return {report.ToString()};
    return {std::string(), strays.size()};
  }
  rexp::PartitionedIndex<2>* partitioned() override { return index_.get(); }

 private:
  // Declared before the index, which joins its fan-out tasks on it.
  rexp::sched::ThreadPool pool_;
  std::vector<std::unique_ptr<MemoryPageFile>> owned_files_;
  std::unique_ptr<rexp::PartitionedIndex<2>> index_;
};

class TieredFrontEnd final : public FrontEnd {
 public:
  explicit TieredFrontEnd(const TreeConfig& config)
      : file_(config.page_size), index_(config, &file_) {
    trees_ = {&index_.tree()};
    files_ = {&file_};
  }
  void Insert(ObjectId oid, const Tpbr<2>& rec, Time now) override {
    index_.Insert(oid, rec, now);
  }
  bool Update(ObjectId oid, const Tpbr<2>& old_rec, const Tpbr<2>& rec,
              Time now) override {
    return index_.Update(oid, old_rec, rec, now);
  }
  bool Delete(ObjectId oid, const Tpbr<2>& rec, Time now) override {
    return index_.Delete(oid, rec, now);
  }
  void Search(const Query<2>& q, std::vector<ObjectId>* out) override {
    index_.Search(q, out);
  }
  void Nn(const Vec<2>& p, Time t, int k,
          std::vector<ObjectId>* out) override {
    index_.NearestNeighbors(p, t, k, out);
  }
  void Tick() override {
    index_.MigrateTick();
    ticked_ = true;
  }
  void FinishSetup(Time now) override {
    if (!ticked_) (void)index_.DrainLiveTier(now);
  }
  // The tree's catalog plus the live tier's own structure check.
  Verdict Verify(Time now) override {
    std::string findings = Findings(index_.tree().Verify(now));
    const rexp::Status live = index_.live_tier().CheckInvariants();
    if (!live.ok()) findings += "live tier: " + live.ToString() + "\n";
    return {findings};
  }
  rexp::TieredIndex<2>* tiered() override { return &index_; }

 private:
  MemoryPageFile file_;
  rexp::TieredIndex<2> index_;
  bool ticked_ = false;
};

}  // namespace

std::unique_ptr<FrontEnd> MakeFrontEnd(FrontEndKind kind, Workload workload,
                                       int query_threads) {
  const TreeConfig config = ConfigFor(workload);
  switch (kind) {
    case FrontEndKind::kTree:
      return std::make_unique<TreeFrontEnd>(config);
    case FrontEndKind::kPartitioned:
      return std::make_unique<PartitionedFrontEnd>(config, query_threads);
    case FrontEndKind::kTiered:
      return std::make_unique<TieredFrontEnd>(config);
  }
  return nullptr;
}

}  // namespace perfbench
