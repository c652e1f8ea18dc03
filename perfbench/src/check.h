// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Output checks. The index's answers are recorded during a pass and
// checked afterwards, outside the timed phase, against an oracle that
// replays the stream: a per-object table of the records the benchmark
// issued, scanned by brute force for every query. The oracle shares no
// tree, page or bound code with the index; range answers use the same
// trajectory-vs-trapezoid predicate as tree/reference_index.h, and
// timeslice answers are checked once more with a point-in-rectangle test
// of the benchmark's own.
#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

// What the index answered. found[i] is the return of the update or
// delete that is Stream::reports[i] (-1 for inserts). Range answers are
// stored sorted; NN answers in the order the index ranked them.
struct Answers {
  std::vector<int8_t> found;
  std::vector<std::vector<ObjectId>> ranges;
  std::vector<std::vector<ObjectId>> nns;

  // Makes room for every operation of `s` (which may have grown).
  void Resize(const Stream& s) {
    found.resize(s.reports.size(), -1);
    ranges.resize(s.ranges.size());
    nns.resize(s.nns.size());
  }
};

struct CheckOutcome {
  uint64_t checked = 0;     // Answers and return values compared.
  uint64_t mismatches = 0;  // ...that disagreed with the oracle.
  std::string first;        // Description of the first disagreement.
};

// `optimistic_update`: the tiered front-end's Update may report true for
// a superseded tree record that has already expired (documented in
// livetier/tiered_index.h), so there a false return must imply the
// oracle's false, and a true return is not checked. Runs on `threads`
// threads, each replaying the stream up to its own segment.
CheckOutcome CheckAnswers(const Stream& s, const Answers& a,
                          bool optimistic_update, int threads);

// Negative controls: corrupt one recorded range answer so the checker
// must fail. "drop" removes an oid from the first non-empty answer; "add"
// inserts an oid that no record carries.
bool Perturb(const std::string& how, Answers* a);

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
