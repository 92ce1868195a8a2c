// Differential match oracle for the Rete network.
//
// Seeded random rule bases and WME add/remove traces are run through three
// matchers at once — the naive from-scratch oracle, the Rete network, and
// the Rete network compiled with the value-domain specialization plan — and
// the match sets must be identical after *every* operation: any lost or
// duplicated delta diverges the set at the step where it happens.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/value_domain.hpp"
#include "ops5/parser.hpp"
#include "rete/naive.hpp"
#include "rete/network.hpp"
#include "util/rng.hpp"

namespace psmsys::rete {
namespace {

using ops5::Program;
using ops5::Value;
using ops5::Wme;

/// Tracks the current match multiset and the full ordered delta log. Multiset
/// because the Rete network may report the same (production, timetags)
/// instantiation once per distinct join path when one WME satisfies several
/// condition elements — activations and deactivations stay balanced, and the
/// engine's conflict set handles the copies symmetrically, so the matcher
/// contract is over the *support* (keys currently active), not the counts.
class OracleListener final : public MatchListener {
 public:
  explicit OracleListener(const Program& program) : program_(program) {}

  void on_activate(const ops5::Production& production,
                   std::span<const Wme* const> wmes) override {
    const std::string key = key_of(production, wmes);
    log_.push_back("+" + key);
    ++matches_[key];
  }

  void on_deactivate(const ops5::Production& production,
                     std::span<const Wme* const> wmes) override {
    const std::string key = key_of(production, wmes);
    log_.push_back("-" + key);
    const auto it = matches_.find(key);
    ASSERT_TRUE(it != matches_.end()) << "deactivation of unknown match: " << key;
    if (--it->second == 0) matches_.erase(it);
  }

  /// Keys with at least one live activation.
  [[nodiscard]] std::set<std::string> support() const {
    std::set<std::string> s;
    for (const auto& [key, count] : matches_) s.insert(key);
    return s;
  }
  [[nodiscard]] const std::vector<std::string>& log() const noexcept { return log_; }

 private:
  [[nodiscard]] std::string key_of(const ops5::Production& production,
                                   std::span<const Wme* const> wmes) const {
    std::string key = program_.symbols().name(production.name());
    for (const auto* w : wmes) key += ":" + std::to_string(w->timetag());
    return key;
  }

  const Program& program_;
  std::map<std::string, std::size_t> matches_;
  std::vector<std::string> log_;
};

/// Random rule base over two joinable classes (4..9 productions).
std::string random_program_source(util::Rng& rng) {
  std::string src = "(literalize a k v w)\n(literalize b k v w)\n";
  const int n_prods = static_cast<int>(rng.next_int(4, 9));
  for (int i = 0; i < n_prods; ++i) {
    src += "(p prod" + std::to_string(i) + "\n";
    const int n_ces = static_cast<int>(rng.next_int(1, 3));
    for (int c = 0; c < n_ces; ++c) {
      const bool negated = c > 0 && rng.next_bool(0.3);
      const char* cls = rng.next_bool(0.5) ? "a" : "b";
      src += std::string("   ") + (negated ? "-" : "") + "(" + cls;
      if (rng.next_bool(0.2)) {
        src += " ^k << " + std::to_string(rng.next_int(0, 2)) + " " +
               std::to_string(rng.next_int(0, 2)) + " >>";
      } else if (rng.next_bool(0.75)) {
        src += " ^k " + std::to_string(rng.next_int(0, 2));
      }
      if (c == 0) {
        src += " ^v <x>";
      } else if (rng.next_bool(0.7)) {
        const char* preds[] = {"", "<> ", "> ", "< "};
        src += std::string(" ^v ") + preds[rng.next_below(4)] + "<x>";
      }
      if (rng.next_bool(0.3)) {
        src += " ^w <y" + std::to_string(c) + "> ^v <> <y" + std::to_string(c) + ">";
      }
      src += ")\n";
    }
    src += "   -->\n   (halt))\n";
  }
  return src;
}

class MatchOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(MatchOracleTest, AllMatchersAgreeAtEveryStep) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  const std::string src = random_program_source(rng);
  SCOPED_TRACE(src);
  const Program p = ops5::parse_program(src);

  OracleListener naive_l(p);
  OracleListener rete_l(p);
  OracleListener spec_l(p);
  util::WorkCounters naive_c, rete_c, spec_c;
  NaiveMatcher naive(p, naive_l, naive_c);
  Network rete(p, rete_l, rete_c);

  // The same serial network compiled with the value-domain specialization
  // plan (seeded with the generator's ground truth: only a and b are ever
  // asserted). Behind its verified certificate, it must be log-invisible.
  analysis::ValueDomainOptions vdo;
  vdo.seed_classes = {{*p.class_index(*p.symbols().find("a")),
                       *p.class_index(*p.symbols().find("b"))}};
  const analysis::ValueDomainReport vd = analysis::analyze_value_domains(p, vdo);
  NetworkOptions spec_opt;
  spec_opt.specialize =
      vd.converged && analysis::verify_specialization(p, vdo, vd).empty();
  spec_opt.plan = vd.plan;
  Network spec(p, spec_l, spec_c, util::CostModel{}, spec_opt);

  std::vector<std::unique_ptr<Wme>> owned;
  std::vector<const Wme*> live;
  ops5::TimeTag tag = 1;
  std::size_t spec_seen = 0;
  std::size_t rete_seen = 0;
  for (int step = 0; step < 150; ++step) {
    const bool remove = !live.empty() && rng.next_bool(0.35);
    if (remove) {
      const auto idx = rng.next_below(live.size());
      const Wme* w = live[idx];
      live[idx] = live.back();
      live.pop_back();
      naive.remove_wme(*w);
      rete.remove_wme(*w);
      spec.remove_wme(*w);
    } else {
      const auto cls = static_cast<ops5::ClassIndex>(rng.next_below(2));
      std::vector<Value> slots{Value(static_cast<double>(rng.next_int(0, 2))),
                               Value(static_cast<double>(rng.next_int(0, 4))),
                               Value(static_cast<double>(rng.next_int(0, 2)))};
      const auto cls_sym = *p.symbols().find(cls == 0 ? "a" : "b");
      owned.push_back(std::make_unique<Wme>(cls, cls_sym, std::move(slots), tag++));
      live.push_back(owned.back().get());
      naive.add_wme(*owned.back());
      rete.add_wme(*owned.back());
      spec.add_wme(*owned.back());
    }
    const std::set<std::string> oracle = naive_l.support();
    ASSERT_EQ(rete_l.support(), oracle) << "serial Rete diverged at step " << step;
    // The specialized network must emit the same per-step delta multiset as
    // the plain one. Sorted before comparing: pruning removes the pruned
    // productions' prefix tokens from the per-WME swap-erase vectors, which
    // may legally reorder retractions *within* one step — invisible to the
    // engine's set-based conflict resolution.
    {
      const auto& sl = spec_l.log();
      const auto& rl = rete_l.log();
      ASSERT_EQ(sl.size() - spec_seen, rl.size() - rete_seen)
          << "specialized Rete delta count diverged at step " << step;
      std::vector<std::string> ss(sl.begin() + static_cast<std::ptrdiff_t>(spec_seen), sl.end());
      std::vector<std::string> rs(rl.begin() + static_cast<std::ptrdiff_t>(rete_seen), rl.end());
      std::sort(ss.begin(), ss.end());
      std::sort(rs.begin(), rs.end());
      ASSERT_EQ(ss, rs) << "specialized Rete step deltas diverged at step " << step;
      spec_seen = sl.size();
      rete_seen = rl.size();
    }
  }

  // clear() must not throw mid-trace state away inconsistently (it resets
  // everything without listener callbacks; agreement after clear is covered
  // by ReteFuzzClear.ClearDrainsAndStaysUsable).
  naive.clear();
  rete.clear();
  spec.clear();
}

INSTANTIATE_TEST_SUITE_P(RandomTraces, MatchOracleTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace psmsys::rete
