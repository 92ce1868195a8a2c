#pragma once

// Naive (stateless) matcher: recomputes the complete set of satisfied
// productions from scratch after every working-memory change.
//
// Two purposes:
//  1. Test oracle — after any add/remove sequence its match set must equal
//     the Rete network's conflict set exactly (property-tested).
//  2. Baseline analog — the paper's original SPAM ran on an "unoptimized
//     Lisp-based OPS5"; porting to ParaOPS5 (Rete, C) gave a 10-20x speedup
//     (Section 6). bench_rete_vs_naive reproduces that ratio as
//     naive-match-cost / rete-match-cost on the same workload.

#include <memory>
#include <vector>

#include "ops5/production.hpp"
#include "rete/matcher.hpp"
#include "util/counters.hpp"

namespace psmsys::rete {

class NaiveMatcher final : public Matcher {
 public:
  NaiveMatcher(const ops5::Program& program, MatchListener& listener,
               util::WorkCounters& counters);
  ~NaiveMatcher() override;

  void add_wme(const ops5::Wme& wme) override;
  void remove_wme(const ops5::Wme& wme) override;
  void clear() override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace psmsys::rete
