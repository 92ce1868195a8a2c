// Differential match oracle for the Rete network.
//
// Seeded random rule bases and WME add/remove traces are run through two
// matchers at once — the naive from-scratch oracle and the Rete network —
// and the match sets must be identical after *every* operation: any lost or
// duplicated delta diverges the set at the step where it happens.

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ops5/parser.hpp"
#include "rete/naive.hpp"
#include "rete/network.hpp"
#include "util/rng.hpp"

namespace psmsys::rete {
namespace {

using ops5::Program;
using ops5::Value;
using ops5::Wme;

/// Tracks the current match multiset. Multiset because the Rete network may report the same (production, timetags)
/// instantiation once per distinct join path when one WME satisfies several
/// condition elements — activations and deactivations stay balanced, and the
/// engine's conflict set handles the copies symmetrically, so the matcher
/// contract is over the *support* (keys currently active), not the counts.
class OracleListener final : public MatchListener {
 public:
  explicit OracleListener(const Program& program) : program_(program) {}

  void on_activate(const ops5::Production& production,
                   std::span<const Wme* const> wmes) override {
    ++matches_[key_of(production, wmes)];
  }

  void on_deactivate(const ops5::Production& production,
                     std::span<const Wme* const> wmes) override {
    const std::string key = key_of(production, wmes);
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

 private:
  [[nodiscard]] std::string key_of(const ops5::Production& production,
                                   std::span<const Wme* const> wmes) const {
    std::string key = program_.symbols().name(production.name());
    for (const auto* w : wmes) key += ":" + std::to_string(w->timetag());
    return key;
  }

  const Program& program_;
  std::map<std::string, std::size_t> matches_;
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
  util::WorkCounters naive_c, rete_c;
  NaiveMatcher naive(p, naive_l, naive_c);
  Network rete(p, rete_l, rete_c);

  std::vector<std::unique_ptr<Wme>> owned;
  std::vector<const Wme*> live;
  ops5::TimeTag tag = 1;
  for (int step = 0; step < 150; ++step) {
    const bool remove = !live.empty() && rng.next_bool(0.35);
    if (remove) {
      const auto idx = rng.next_below(live.size());
      const Wme* w = live[idx];
      live[idx] = live.back();
      live.pop_back();
      naive.remove_wme(*w);
      rete.remove_wme(*w);
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
    }
    const std::set<std::string> oracle = naive_l.support();
    ASSERT_EQ(rete_l.support(), oracle) << "serial Rete diverged at step " << step;
  }

  // clear() must not throw mid-trace state away inconsistently (it resets
  // everything without listener callbacks; agreement after clear is covered
  // by ReteFuzzClear.ClearDrainsAndStaysUsable).
  naive.clear();
  rete.clear();
}

INSTANTIATE_TEST_SUITE_P(RandomTraces, MatchOracleTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace psmsys::rete
