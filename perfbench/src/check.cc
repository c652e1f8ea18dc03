// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
#include "check.h"

#include <algorithm>
#include <cstdio>
#include <thread>
#include <utility>

#include "tpbr/intersect.h"

namespace perfbench {
namespace {

using rexp::Query;
using rexp::Tpbr;

// Slack of the independent timeslice test: positions this close to the
// query rectangle's border are not judged (float rounding of the two
// formulations may differ there).
constexpr double kBorderEps = 1e-6;

struct Slot {
  bool present = false;
  Tpbr<2> rec;
};

bool SamePoint(const Tpbr<2>& a, const Tpbr<2>& b) {
  if (a.t_exp != b.t_exp) return false;
  for (int d = 0; d < 2; ++d) {
    if (a.lo[d] != b.lo[d] || a.vlo[d] != b.vlo[d]) return false;
  }
  return true;
}

class Oracle {
 public:
  Oracle(const Stream& s, const Answers& a, bool optimistic_update,
         CheckOutcome* out)
      : s_(s), a_(a), optimistic_update_(optimistic_update), out_(out),
        slots_(static_cast<size_t>(s.max_oid) + 1) {}

  // Applies a report without checking its return value.
  void Apply(const Op& op) { (void)ApplyReport(op); }

  void Check(const Op& op) {
    switch (op.kind) {
      case OpKind::kInsert:
        Apply(op);
        return;
      case OpKind::kUpdate:
      case OpKind::kDelete: {
        const bool expected = ApplyReport(op);
        const int8_t got = a_.found[op.arg];
        const bool ok = op.kind == OpKind::kUpdate && optimistic_update_
                            ? (got != 0 || !expected)
                            : got == (expected ? 1 : 0);
        Count(ok, op, "return value");
        return;
      }
      case OpKind::kSearch:
        CheckRange(op);
        return;
      case OpKind::kNn:
        CheckNn(op);
        return;
      case OpKind::kTick:
        return;
    }
  }

 private:
  // Mirrors Tree::Update / Tree::Delete: the old record matches when the
  // object's current record equals it and is live at `now`.
  bool ApplyReport(const Op& op) {
    if (op.kind == OpKind::kSearch || op.kind == OpKind::kNn ||
        op.kind == OpKind::kTick) {
      return false;
    }
    const Report& r = s_.reports[op.arg];
    Slot& slot = slots_[r.oid];
    const Tpbr<2>& target =
        op.kind == OpKind::kUpdate ? r.old_record : r.record;
    const bool live_match = slot.present && SamePoint(slot.rec, target) &&
                            slot.rec.LiveAt(op.now);
    if (op.kind == OpKind::kDelete) {
      if (live_match) slot.present = false;
    } else {
      slot.present = true;
      slot.rec = r.record;
    }
    return live_match;
  }

  void CheckRange(const Op& op) {
    const Query<2>& q = s_.ranges[op.arg];
    expected_.clear();
    for (size_t oid = 0; oid < slots_.size(); ++oid) {
      const Slot& slot = slots_[oid];
      if (slot.present && !ClearlyApart(slot.rec, q) &&
          rexp::Intersects(slot.rec, q, slot.rec.t_exp)) {
        expected_.push_back(static_cast<ObjectId>(oid));
      }
    }
    const std::vector<ObjectId>& got = a_.ranges[op.arg];
    bool ok = got == expected_;
    if (ok && q.type == rexp::QueryType::kTimeslice) {
      ok = TimesliceAgrees(q, got);
    }
    Count(ok, op, "range answer");
  }

  // A cheap pre-test that only saves time: true when the record's and the
  // query's bounding boxes over their common lifetime are apart by more
  // than kBorderEps, so the exact predicate would answer false anyway.
  static bool ClearlyApart(const Tpbr<2>& rec, const Query<2>& q) {
    const Time t0 = q.t_lo;
    const Time t1 = std::min(q.t_hi, rec.t_exp);
    if (t0 > t1) return false;  // Left to the exact predicate.
    for (int d = 0; d < 2; ++d) {
      const double a = rec.LoAt(d, t0), b = rec.LoAt(d, t1);
      const double qlo = std::min(q.LoAt(d, t0), q.LoAt(d, t1));
      const double qhi = std::max(q.HiAt(d, t0), q.HiAt(d, t1));
      if (std::max(a, b) < qlo - kBorderEps || std::min(a, b) > qhi + kBorderEps) {
        return true;
      }
    }
    return false;
  }

  // The benchmark's own point-in-rectangle test at the query time. Every
  // object clearly inside must be answered, none clearly outside may be.
  bool TimesliceAgrees(const Query<2>& q, const std::vector<ObjectId>& got) {
    answered_.resize(slots_.size());
    for (ObjectId oid : got) answered_[oid] = 1;
    bool ok = true;
    for (size_t oid = 0; ok && oid < slots_.size(); ++oid) {
      const Slot& slot = slots_[oid];
      if (!slot.present) continue;
      bool inside = slot.rec.t_exp >= q.t_lo;
      bool outside = !inside;
      for (int d = 0; d < 2; ++d) {
        const double x = slot.rec.lo[d] + slot.rec.vlo[d] * q.t_lo;
        inside = inside && x > q.r1.lo[d] + kBorderEps &&
                 x < q.r1.hi[d] - kBorderEps;
        outside = outside || x < q.r1.lo[d] - kBorderEps ||
                  x > q.r1.hi[d] + kBorderEps;
      }
      ok = !(inside && !answered_[oid]) && !(outside && answered_[oid]);
    }
    for (ObjectId oid : got) answered_[oid] = 0;
    return ok;
  }

  // Brute-force k nearest at the query time, ranked by (distance, oid)
  // like the index: a running top-k kept sorted by insertion.
  void CheckNn(const Op& op) {
    const NnQuery& q = s_.nns[op.arg];
    candidates_.clear();
    for (size_t oid = 0; oid < slots_.size(); ++oid) {
      const Slot& slot = slots_[oid];
      if (!slot.present || !slot.rec.LiveAt(q.t)) continue;
      double d2 = 0;
      for (int d = 0; d < 2; ++d) {
        const double delta = slot.rec.LoAt(d, q.t) - q.point[d];
        d2 += delta * delta;
      }
      const std::pair<double, ObjectId> c(d2, static_cast<ObjectId>(oid));
      if (candidates_.size() == kNnK && !(c < candidates_.back())) continue;
      if (candidates_.size() == kNnK) candidates_.pop_back();
      candidates_.insert(
          std::upper_bound(candidates_.begin(), candidates_.end(), c), c);
    }
    const std::vector<ObjectId>& got = a_.nns[op.arg];
    bool ok = got.size() == candidates_.size();
    for (size_t i = 0; ok && i < got.size(); ++i) {
      ok = got[i] == candidates_[i].second;
    }
    Count(ok, op, "10-NN answer");
  }

  void Count(bool ok, const Op& op, const char* what) {
    ++out_->checked;
    if (ok) return;
    if (out_->mismatches++ == 0) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s of op kind %d #%u at t=%.6f", what,
                    static_cast<int>(op.kind), op.arg, op.now);
      out_->first = buf;
    }
  }

  const Stream& s_;
  const Answers& a_;
  const bool optimistic_update_;
  CheckOutcome* out_;
  std::vector<Slot> slots_;
  std::vector<ObjectId> expected_;
  std::vector<uint8_t> answered_;
  std::vector<std::pair<double, ObjectId>> candidates_;
};

}  // namespace

CheckOutcome CheckAnswers(const Stream& s, const Answers& a,
                          bool optimistic_update, int threads) {
  // One sequence: set-up operations, then timed ones.
  std::vector<const Op*> ops;
  ops.reserve(s.setup.size() + s.timed.size());
  for (const Op& op : s.setup) ops.push_back(&op);
  for (const Op& op : s.timed) ops.push_back(&op);
  threads = std::max(1, threads);
  std::vector<CheckOutcome> outcomes(static_cast<size_t>(threads));
  std::vector<std::thread> workers;
  const size_t n = ops.size();
  for (int t = 0; t < threads; ++t) {
    const size_t begin = n * static_cast<size_t>(t) / static_cast<size_t>(threads);
    const size_t end =
        n * static_cast<size_t>(t + 1) / static_cast<size_t>(threads);
    workers.emplace_back([&, t, begin, end] {
      Oracle oracle(s, a, optimistic_update,
                    &outcomes[static_cast<size_t>(t)]);
      for (size_t i = 0; i < begin; ++i) oracle.Apply(*ops[i]);
      for (size_t i = begin; i < end; ++i) oracle.Check(*ops[i]);
    });
  }
  for (std::thread& w : workers) w.join();
  CheckOutcome total;
  for (const CheckOutcome& o : outcomes) {
    total.checked += o.checked;
    if (o.mismatches > 0 && total.mismatches == 0) total.first = o.first;
    total.mismatches += o.mismatches;
  }
  return total;
}

bool Perturb(const std::string& how, Answers* a) {
  for (std::vector<ObjectId>& answer : a->ranges) {
    if (answer.empty()) continue;
    if (how == "drop") {
      answer.erase(answer.begin());
    } else if (how == "add") {
      // An oid past every issued one: no record carries it.
      answer.push_back(answer.back() + 1000000000u);
    } else {
      return false;
    }
    return true;
  }
  return false;
}

}  // namespace perfbench
