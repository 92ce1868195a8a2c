// Seeded randomized differential oracle for the Rete hot-path layout: node
// unlinking, O(1) retraction, and the arena/SoA layout must be invisible in
// match results.
//
// Each trace draws a random rule base from one of three stress families —
// negation-heavy (blocker churn through negative nodes), retraction-heavy
// (the streaming workload: most operations retract or modify), and
// quiescent-production (rule bases dominated by productions whose tail CEs
// can never match, the unlinking fast path) — and replays a random
// add/retract/modify WME trace through the naive oracle and the Rete network
// at once.
//
// After every operation the Rete network's support set must agree with the
// oracle's, and the network must pass its structural self-check (position
// back-pointers, index mirrors, link flags, record value pointers). Full retraction
// at the end must leave an empty network — zero live tokens, clean
// invariants — that still matches correctly when the trace is replayed into
// it.
//
// The shared-compile axis runs two networks over one CompiledNetwork, each
// driven by its own trace against its own oracle, interleaved step by step:
// the compiled half is read-only, so neither network may see the other's
// match state.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
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

/// Current match multiset (one WME satisfying several CEs of a production
/// yields one instantiation per join path; activations and deactivations
/// stay balanced).
class Listener final : public MatchListener {
 public:
  explicit Listener(const Program& program) : program_(program) {}

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

  [[nodiscard]] std::set<std::string> support() const {
    std::set<std::string> s;
    for (const auto& [key, count] : matches_) s.insert(key);
    return s;
  }
  [[nodiscard]] bool empty() const noexcept { return matches_.empty(); }

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

enum class Family { NegationHeavy, RetractionHeavy, Quiescent };

struct TraceConfig {
  Family family = Family::NegationHeavy;
  double remove_bias = 0.3;   ///< P(retract) once WM is warm
  double modify_bias = 0.15;  ///< P(modify) = retract + re-add mutated
};

/// Random rule base over classes `a` and `b` (WME traffic) and `q` (never
/// asserted — quiescent tails). Negation-heavy cranks the negative-CE rate;
/// quiescent gives most productions a `q` tail CE that can never match.
std::string random_program_source(util::Rng& rng, Family family) {
  std::string src = "(literalize a k v w)\n(literalize b k v w)\n(literalize q k v w)\n";
  const int n_prods = static_cast<int>(rng.next_int(4, 9));
  const double neg_p = family == Family::NegationHeavy ? 0.6 : 0.25;
  for (int i = 0; i < n_prods; ++i) {
    src += "(p prod" + std::to_string(i) + "\n";
    const int n_ces = static_cast<int>(rng.next_int(1, 3));
    for (int c = 0; c < n_ces; ++c) {
      const bool negated = c > 0 && rng.next_bool(neg_p);
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
    // Quiescent family: most productions end in a CE on the never-asserted
    // class, so their tails stay empty and unlinked for the whole trace
    // while their prefixes see full WME traffic.
    if (family == Family::Quiescent && rng.next_bool(0.75)) {
      src += "   (q ^k " + std::to_string(rng.next_int(0, 2)) + " ^v <x>)\n";
    }
    src += "   -->\n   (halt))\n";
  }
  return src;
}

/// The oracle and the Rete network plus their listeners, driven in lockstep.
/// The network compiles `p` itself unless given a shared compile of it.
struct Harness {
  explicit Harness(const Program& p, std::shared_ptr<const CompiledNetwork> compiled = nullptr)
      : program(p) {
    names = {"naive", "rete"};
    for (int i = 0; i < 2; ++i) listeners.push_back(std::make_unique<Listener>(p));
    counters.resize(2);
    matchers.push_back(std::make_unique<NaiveMatcher>(p, *listeners[0], counters[0]));
    auto network = compiled != nullptr
                       ? std::make_unique<Network>(std::move(compiled), *listeners[1], counters[1])
                       : std::make_unique<Network>(p, *listeners[1], counters[1]);
    rete = network.get();
    matchers.push_back(std::move(network));
  }

  void add(const Wme& w) {
    for (auto& m : matchers) m->add_wme(w);
  }
  void remove(const Wme& w) {
    for (auto& m : matchers) m->remove_wme(w);
  }

  void check_step(int step) {
    ASSERT_EQ(listeners[1]->support(), listeners[0]->support())
        << "rete support diverged at step " << step;
  }

  void check_invariants(int step) {
    const auto violations = matchers[1]->check_invariants();
    ASSERT_TRUE(violations.empty())
        << "rete invariants violated at step " << step << ": " << violations[0] << " (+"
        << (violations.size() - 1) << " more)";
  }

  const Program& program;
  std::vector<std::string> names;
  std::vector<std::unique_ptr<Listener>> listeners;
  std::vector<util::WorkCounters> counters;
  std::vector<std::unique_ptr<Matcher>> matchers;
  Network* rete = nullptr;  ///< matchers[1], for its live-token gauge
};

TraceConfig config_for(int seed) {
  TraceConfig cfg;
  switch (seed % 3) {
    case 0:
      cfg.family = Family::NegationHeavy;
      break;
    case 1:
      cfg.family = Family::RetractionHeavy;
      cfg.remove_bias = 0.5;
      cfg.modify_bias = 0.25;
      break;
    default:
      cfg.family = Family::Quiescent;
      break;
  }
  return cfg;
}

/// A random add/retract/modify WME trace over classes `a` and `b`: the WMEs
/// it made, and those still live.
struct Trace {
  Trace(const Program& p, const TraceConfig& c, const util::Rng& r)
      : program(p), cfg(c), rng(r) {}

  const Wme& make_wme() {
    const auto cls = static_cast<ops5::ClassIndex>(rng.next_below(2));
    std::vector<Value> slots{Value(static_cast<double>(rng.next_int(0, 2))),
                             Value(static_cast<double>(rng.next_int(0, 4))),
                             Value(static_cast<double>(rng.next_int(0, 2)))};
    const auto cls_sym = *program.symbols().find(cls == 0 ? "a" : "b");
    owned.push_back(std::make_unique<Wme>(cls, cls_sym, std::move(slots), tag++));
    live.push_back(owned.back().get());
    return *owned.back();
  }

  const Wme& retract_random() {
    const auto idx = rng.next_below(live.size());
    const Wme* w = live[idx];
    live[idx] = live.back();
    live.pop_back();
    return *w;
  }

  /// One operation of the trace, applied to every matcher of `h`.
  void step(Harness& h) {
    const bool warm = live.size() >= 4;
    if (warm && rng.next_bool(cfg.modify_bias)) {
      // Modify = retract + re-assert with mutated slots (OPS5 semantics).
      h.remove(retract_random());
      h.add(make_wme());
    } else if (warm && rng.next_bool(cfg.remove_bias)) {
      h.remove(retract_random());
    } else {
      h.add(make_wme());
    }
  }

  /// Full retraction must drain the network completely: empty support, zero
  /// live tokens, and clean structural invariants (which also means every
  /// non-dummy-fed node has unlinked again).
  void drain(Harness& h) {
    while (!live.empty()) h.remove(retract_random());
    h.check_step(-1);
    if (::testing::Test::HasFatalFailure()) return;
    for (std::size_t i = 0; i < h.matchers.size(); ++i) {
      EXPECT_TRUE(h.listeners[i]->empty()) << h.names[i] << " support not empty after drain";
    }
    EXPECT_EQ(h.rete->live_tokens(), 0u) << "rete leaked live tokens after full retraction";
    h.check_invariants(-1);
  }

  const Program& program;
  TraceConfig cfg;
  util::Rng rng;
  std::vector<std::unique_ptr<Wme>> owned;
  std::vector<const Wme*> live;
  ops5::TimeTag tag = 1;
};

class ReteFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ReteFuzzTest, DifferentialTraceWithInvariants) {
  const int seed = GetParam();
  const TraceConfig cfg = config_for(seed);
  util::Rng rng(static_cast<std::uint64_t>(seed) * 48271 + 11);
  const std::string src = random_program_source(rng, cfg.family);
  SCOPED_TRACE(src);
  const Program p = ops5::parse_program(src);
  Harness h(p);
  Trace trace(p, cfg, rng);

  for (int step = 0; step < 110; ++step) {
    trace.step(h);
    h.check_step(step);
    if (step % 10 == 0) h.check_invariants(step);
    if (::testing::Test::HasFatalFailure()) return;
  }
  h.check_invariants(110);
  trace.drain(h);
  if (::testing::Test::HasFatalFailure()) return;

  // The drained network must still match: replay fresh traffic and re-verify.
  for (int step = 0; step < 20; ++step) {
    h.add(trace.make_wme());
    h.check_step(1000 + step);
    if (::testing::Test::HasFatalFailure()) return;
  }
  h.check_invariants(1020);
}

// 54 seeded traces, 18 per stress family (seed % 3 picks the family).
INSTANTIATE_TEST_SUITE_P(SeededTraces, ReteFuzzTest, ::testing::Range(0, 54));

class ReteFuzzSharedCompile : public ::testing::TestWithParam<int> {};

TEST_P(ReteFuzzSharedCompile, InterleavedTracesOverOneCompile) {
  const int seed = GetParam();
  const TraceConfig cfg = config_for(seed);
  util::Rng rng(static_cast<std::uint64_t>(seed) * 48271 + 11);
  const std::string src = random_program_source(rng, cfg.family);
  SCOPED_TRACE(src);
  const Program p = ops5::parse_program(src);
  const auto compiled = std::make_shared<const CompiledNetwork>(p);
  Harness first(p, compiled);
  Harness second(p, compiled);
  ASSERT_EQ(&first.rete->compiled(), compiled.get());
  ASSERT_EQ(&second.rete->compiled(), compiled.get());
  Trace first_trace(p, cfg, rng);
  Trace second_trace(p, cfg, util::Rng(static_cast<std::uint64_t>(seed) * 69621 + 5));

  for (int step = 0; step < 110; ++step) {
    for (auto [h, trace] : {std::pair{&first, &first_trace}, std::pair{&second, &second_trace}}) {
      trace->step(*h);
      h->check_step(step);
      h->check_invariants(step);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  first_trace.drain(first);
  second_trace.drain(second);
}

// 18 seeded pairs of traces, 6 per stress family.
INSTANTIATE_TEST_SUITE_P(SeededTraces, ReteFuzzSharedCompile, ::testing::Range(0, 18));

// clear() must reset to the post-construction state: empty, invariant-clean,
// and immediately reusable with results identical to a fresh network.
TEST(ReteFuzzClear, ClearDrainsAndStaysUsable) {
  util::Rng rng(2026);
  const Program p = ops5::parse_program(random_program_source(rng, Family::NegationHeavy));
  Harness h(p);

  std::vector<std::unique_ptr<Wme>> owned;
  ops5::TimeTag tag = 1;
  const auto add_batch = [&](util::Rng& r) {
    for (int i = 0; i < 30; ++i) {
      const auto cls = static_cast<ops5::ClassIndex>(r.next_below(2));
      std::vector<Value> slots{Value(static_cast<double>(r.next_int(0, 2))),
                               Value(static_cast<double>(r.next_int(0, 4))),
                               Value(static_cast<double>(r.next_int(0, 2)))};
      const auto cls_sym = *p.symbols().find(cls == 0 ? "a" : "b");
      owned.push_back(std::make_unique<Wme>(cls, cls_sym, std::move(slots), tag++));
      for (auto& m : h.matchers) m->add_wme(*owned.back());
    }
  };

  util::Rng r1(99);
  add_batch(r1);
  const auto support_before = h.listeners[1]->support();
  EXPECT_FALSE(support_before.empty());

  for (auto& m : h.matchers) m->clear();
  EXPECT_EQ(h.rete->live_tokens(), 0u);
  for (std::size_t i = 1; i < h.matchers.size(); ++i) {
    const auto violations = h.matchers[i]->check_invariants();
    EXPECT_TRUE(violations.empty()) << h.names[i] << ": " << violations[0];
  }

  // Same batch again (fresh timetags): the recycled arenas must reproduce
  // the same support modulo the timetag shift, checked via the oracle.
  util::Rng r2(99);
  add_batch(r2);
  for (std::size_t i = 1; i < h.matchers.size(); ++i) {
    EXPECT_EQ(h.listeners[i]->support(), h.listeners[0]->support())
        << h.names[i] << " diverged after clear()+replay";
  }
  h.check_invariants(0);
}

}  // namespace
}  // namespace psmsys::rete
