#include "ops5/parser.hpp"

#include <cctype>
#include <charconv>
#include <optional>
#include <utility>
#include <vector>

namespace psmsys::ops5 {

namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

enum class TokKind {
  LParen,
  RParen,
  LBrace,
  RBrace,
  DisjOpen,   // <<
  DisjClose,  // >>
  Arrow,      // -->
  Negation,   // '-' immediately before '('
  Attribute,  // ^name
  Variable,   // <name>
  Pred,       // = <> < <= > >=
  Sym,
  Number,
  End,
};

struct Token {
  TokKind kind = TokKind::End;
  std::string text;       // Sym, Attribute (without ^), Variable (without <>)
  double number = 0.0;    // Number
  Predicate pred = Predicate::Eq;
  int line = 1;
  int col = 1;  // 1-based column of the token's first character

  [[nodiscard]] SourceLoc loc() const noexcept { return {line, col}; }
};

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) { advance(); }

  [[nodiscard]] const Token& peek() const noexcept { return current_; }

  Token take() {
    Token t = current_;
    advance();
    return t;
  }

  [[nodiscard]] int line() const noexcept { return current_.line; }

 private:
  void advance() { current_ = lex(); }

  [[nodiscard]] bool at_end() const noexcept { return pos_ >= src_.size(); }
  [[nodiscard]] char cur() const noexcept { return src_[pos_]; }
  [[nodiscard]] char look(std::size_t k) const noexcept {
    return pos_ + k < src_.size() ? src_[pos_ + k] : '\0';
  }

  void skip_space_and_comments() {
    while (!at_end()) {
      const char c = cur();
      if (c == '\n') {
        ++line_;
        ++pos_;
        line_start_ = pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == ';') {
        while (!at_end() && cur() != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  [[nodiscard]] static bool is_sym_char(char c) noexcept {
    return !std::isspace(static_cast<unsigned char>(c)) && c != '(' && c != ')' && c != '{' &&
           c != '}' && c != ';' && c != '^' && c != '\0';
  }

  [[nodiscard]] static bool looks_numeric(std::string_view s) noexcept {
    if (s.empty()) return false;
    std::size_t i = (s[0] == '-' || s[0] == '+') ? 1 : 0;
    if (i >= s.size()) return false;
    bool digit = false;
    bool dot = false;
    for (; i < s.size(); ++i) {
      if (std::isdigit(static_cast<unsigned char>(s[i]))) {
        digit = true;
      } else if (s[i] == '.' && !dot) {
        dot = true;
      } else {
        return false;
      }
    }
    return digit;
  }

  Token lex() {
    skip_space_and_comments();
    Token t;
    t.line = line_;
    t.col = static_cast<int>(pos_ - line_start_) + 1;
    if (at_end()) return t;

    const char c = cur();
    switch (c) {
      case '(': ++pos_; t.kind = TokKind::LParen; return t;
      case ')': ++pos_; t.kind = TokKind::RParen; return t;
      case '{': ++pos_; t.kind = TokKind::LBrace; return t;
      case '}': ++pos_; t.kind = TokKind::RBrace; return t;
      default: break;
    }

    if (c == '^') {
      ++pos_;
      t.kind = TokKind::Attribute;
      while (!at_end() && is_sym_char(cur()) && cur() != '<' && cur() != '>' && cur() != '=') {
        t.text += src_[pos_++];
      }
      if (t.text.empty()) throw ParseError("empty attribute name after ^", line_);
      return t;
    }

    if (c == '<') {
      // <<, <>, <=, <var>, or bare <.
      if (look(1) == '<') {
        pos_ += 2;
        t.kind = TokKind::DisjOpen;
        return t;
      }
      if (look(1) == '>') {
        pos_ += 2;
        t.kind = TokKind::Pred;
        t.pred = Predicate::Ne;
        return t;
      }
      if (look(1) == '=') {
        pos_ += 2;
        t.kind = TokKind::Pred;
        t.pred = Predicate::Le;
        return t;
      }
      // Try a variable: <ident>
      std::size_t j = pos_ + 1;
      std::string name;
      while (j < src_.size() && src_[j] != '>' && is_sym_char(src_[j]) && src_[j] != '<') {
        name += src_[j++];
      }
      if (j < src_.size() && src_[j] == '>' && !name.empty()) {
        pos_ = j + 1;
        t.kind = TokKind::Variable;
        t.text = std::move(name);
        return t;
      }
      ++pos_;
      t.kind = TokKind::Pred;
      t.pred = Predicate::Lt;
      return t;
    }

    if (c == '>') {
      if (look(1) == '>') {
        pos_ += 2;
        t.kind = TokKind::DisjClose;
        return t;
      }
      if (look(1) == '=') {
        pos_ += 2;
        t.kind = TokKind::Pred;
        t.pred = Predicate::Ge;
        return t;
      }
      ++pos_;
      t.kind = TokKind::Pred;
      t.pred = Predicate::Gt;
      return t;
    }

    if (c == '=' && !is_sym_char(look(1))) {
      ++pos_;
      t.kind = TokKind::Pred;
      t.pred = Predicate::Eq;
      return t;
    }

    if (c == '-') {
      if (look(1) == '-' && look(2) == '>') {
        pos_ += 3;
        t.kind = TokKind::Arrow;
        return t;
      }
      if (look(1) == '(') {
        ++pos_;
        t.kind = TokKind::Negation;
        return t;
      }
      // falls through to symbol/number
    }

    std::string word;
    while (!at_end() && is_sym_char(cur())) word += src_[pos_++];
    if (word.empty()) throw ParseError(std::string("unexpected character '") + c + "'", line_);
    if (looks_numeric(word)) {
      t.kind = TokKind::Number;
      double v = 0.0;
      const auto* begin = word.data();
      const auto* end = word.data() + word.size();
      const auto res = std::from_chars(begin, end, v);
      if (res.ec != std::errc{} || res.ptr != end) {
        throw ParseError("bad number: " + word, line_);
      }
      t.number = v;
      return t;
    }
    t.kind = TokKind::Sym;
    t.text = std::move(word);
    return t;
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  std::size_t line_start_ = 0;
  int line_ = 1;
  Token current_;
};

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

class Parser {
 public:
  Parser(Program& program, std::string_view source) : program_(program), lex_(source) {}

  void run() {
    while (lex_.peek().kind != TokKind::End) {
      expect(TokKind::LParen, "top-level form");
      const Token head = expect(TokKind::Sym, "form keyword");
      if (head.text == "literalize") {
        parse_literalize();
      } else if (head.text == "p") {
        parse_production();
      } else if (head.text == "pack") {
        parse_pack();
      } else {
        throw ParseError("unknown top-level form: " + head.text, head.line);
      }
    }
  }

 private:
  Token expect(TokKind kind, std::string_view what) {
    Token t = lex_.take();
    if (t.kind != kind) {
      throw ParseError("expected " + std::string(what), t.line, t.col);
    }
    return t;
  }

  void parse_literalize() {
    const Token name = expect(TokKind::Sym, "class name");
    std::vector<std::string> attrs;
    while (lex_.peek().kind == TokKind::Sym) attrs.push_back(lex_.take().text);
    expect(TokKind::RParen, "')' after literalize");
    if (attrs.empty()) throw ParseError("literalize needs >= 1 attribute", name.line);
    std::vector<std::string_view> views(attrs.begin(), attrs.end());
    program_.declare_class(name.text, views);
  }

  /// `(pack <name> [<version>])` — rule-pack identity metadata for versioned
  /// loading. The version may be a symbol ("v2", "2026-08") or a number.
  void parse_pack() {
    const Token name = expect(TokKind::Sym, "pack name");
    std::string version;
    const TokKind k = lex_.peek().kind;
    if (k == TokKind::Sym) {
      version = lex_.take().text;
    } else if (k == TokKind::Number) {
      const double v = lex_.take().number;
      if (v == static_cast<double>(static_cast<long long>(v))) {
        version = std::to_string(static_cast<long long>(v));
      } else {
        version = std::to_string(v);
      }
    }
    expect(TokKind::RParen, "')' after pack");
    program_.set_pack(name.text, std::move(version));
  }

  void parse_production() {
    const Token name = expect(TokKind::Sym, "production name");
    std::vector<ConditionElement> lhs;
    while (true) {
      const TokKind k = lex_.peek().kind;
      if (k == TokKind::Arrow) {
        lex_.take();
        break;
      }
      if (k != TokKind::Negation && k != TokKind::LParen) {
        throw ParseError("expected condition element or -->", lex_.line());
      }
      if (lhs.size() == kMaxConditionElements) {
        throw ParseError("production has more than " + std::to_string(kMaxConditionElements) +
                             " condition elements",
                         lex_.peek().line, lex_.peek().col);
      }
      lex_.take();
      if (k == TokKind::Negation) expect(TokKind::LParen, "'(' after negation");
      lhs.push_back(parse_ce(/*negated=*/k == TokKind::Negation));
    }
    current_lhs_ = lhs;  // modify/remove resolve attribute names against the LHS
    std::vector<Action> rhs;
    while (lex_.peek().kind == TokKind::LParen) {
      lex_.take();
      rhs.push_back(parse_action());
    }
    expect(TokKind::RParen, "')' closing production");
    current_lhs_.clear();
    Production prod(program_.symbols().intern(name.text), std::move(lhs), std::move(rhs));
    prod.set_location(name.loc());
    program_.add_production(std::move(prod));
  }

  [[nodiscard]] ClassIndex resolve_class(const Token& tok) {
    const auto sym = program_.symbols().intern(tok.text);
    const auto idx = program_.class_index(sym);
    if (!idx) throw ParseError("undeclared WME class: " + tok.text, tok.line, tok.col);
    return *idx;
  }

  [[nodiscard]] SlotIndex resolve_slot(ClassIndex cls, const Token& attr) {
    const auto sym = program_.symbols().intern(attr.text);
    const SlotIndex slot = program_.wme_class(cls).slot_of(sym);
    if (slot == kInvalidSlot) {
      throw ParseError("class " + program_.symbols().name(program_.wme_class(cls).name()) +
                           " has no attribute ^" + attr.text,
                       attr.line, attr.col);
    }
    return slot;
  }

  ConditionElement parse_ce(bool negated) {
    ConditionElement ce;
    const Token cls = expect(TokKind::Sym, "WME class in condition element");
    ce.cls = resolve_class(cls);
    ce.class_name = program_.wme_class(ce.cls).name();
    ce.negated = negated;
    ce.loc = cls.loc();
    while (lex_.peek().kind == TokKind::Attribute) {
      const Token attr = lex_.take();
      const SlotIndex slot = resolve_slot(ce.cls, attr);
      if (lex_.peek().kind == TokKind::LBrace) {
        lex_.take();
        while (lex_.peek().kind != TokKind::RBrace) {
          ce.tests.push_back(parse_attr_test(slot));
        }
        lex_.take();
      } else {
        ce.tests.push_back(parse_attr_test(slot));
      }
    }
    expect(TokKind::RParen, "')' closing condition element");
    return ce;
  }

  AttrTest parse_attr_test(SlotIndex slot) {
    AttrTest test;
    test.slot = slot;
    if (lex_.peek().kind == TokKind::DisjOpen) {
      // OPS5 value disjunction: ^attr << v1 v2 ... >> (constants only).
      const int line = lex_.take().line;
      while (lex_.peek().kind != TokKind::DisjClose) {
        const Token v = lex_.take();
        if (v.kind == TokKind::Number) {
          test.disjunction.emplace_back(v.number);
        } else if (v.kind == TokKind::Sym) {
          test.disjunction.emplace_back(
              v.text == "nil" ? Value{} : Value(program_.symbols().intern(v.text)));
        } else {
          throw ParseError("disjunctions may only contain constants", v.line);
        }
      }
      lex_.take();
      if (test.disjunction.empty()) throw ParseError("empty value disjunction", line);
      return test;
    }
    if (lex_.peek().kind == TokKind::Pred) {
      test.pred = lex_.take().pred;
    }
    const Token operand = lex_.take();
    switch (operand.kind) {
      case TokKind::Variable:
        test.is_variable = true;
        test.var = program_.intern_variable(operand.text);
        break;
      case TokKind::Number:
        test.constant = Value(operand.number);
        break;
      case TokKind::Sym:
        test.constant = operand.text == "nil" ? Value{} : Value(program_.symbols().intern(operand.text));
        break;
      default:
        throw ParseError("expected test operand (constant or variable)", operand.line);
    }
    return test;
  }

  Action parse_action() {
    const Token head = expect(TokKind::Sym, "action keyword");
    if (head.text == "make") return parse_make();
    if (head.text == "modify") return parse_modify();
    if (head.text == "remove") return parse_remove();
    if (head.text == "bind") return parse_bind();
    if (head.text == "write") return parse_write();
    if (head.text == "halt") {
      expect(TokKind::RParen, "')' after halt");
      return HaltAction{};
    }
    throw ParseError("unknown action: " + head.text, head.line);
  }

  std::vector<std::pair<SlotIndex, Expr>> parse_attr_sets(ClassIndex cls) {
    std::vector<std::pair<SlotIndex, Expr>> sets;
    while (lex_.peek().kind == TokKind::Attribute) {
      const Token attr = lex_.take();
      const SlotIndex slot = resolve_slot(cls, attr);
      sets.emplace_back(slot, parse_expr());
    }
    return sets;
  }

  Action parse_make() {
    const Token cls_tok = expect(TokKind::Sym, "class name in make");
    MakeAction make;
    make.cls = resolve_class(cls_tok);
    make.sets = parse_attr_sets(make.cls);
    expect(TokKind::RParen, "')' after make");
    return make;
  }

  /// `modify` and `remove` designate a CE by 1-based number. The class for
  /// attribute resolution is that CE's class, so the caller must know the
  /// production being parsed; we record the CE index and resolve at the end.
  Action parse_modify() {
    const Token n = expect(TokKind::Number, "CE index in modify");
    ModifyAction mod;
    mod.ce_index = static_cast<std::uint32_t>(n.number);
    const ClassIndex cls = ce_class_for_index(mod.ce_index, n.line);
    mod.sets = parse_attr_sets(cls);
    expect(TokKind::RParen, "')' after modify");
    return mod;
  }

  Action parse_remove() {
    const Token n = expect(TokKind::Number, "CE index in remove");
    expect(TokKind::RParen, "')' after remove");
    return RemoveAction{static_cast<std::uint32_t>(n.number)};
  }

  Action parse_bind() {
    const Token var = expect(TokKind::Variable, "variable in bind");
    BindAction bind;
    bind.var = program_.intern_variable(var.text);
    bind.expr = parse_expr();
    expect(TokKind::RParen, "')' after bind");
    return bind;
  }

  Action parse_write() {
    WriteAction w;
    while (lex_.peek().kind != TokKind::RParen) w.exprs.push_back(parse_expr());
    lex_.take();
    return w;
  }

  /// A production has at most this many condition elements (the phase
  /// programs use 5). Matching recurses once per CE, a left activation
  /// walking the production's joins, and retraction once per token level,
  /// so hostile source is rejected here instead of overflowing the stack.
  static constexpr std::size_t kMaxConditionElements = 256;

  /// An expression is at most this many levels deep: a constant or a
  /// variable is one level, and each parenthesized form (a call or a
  /// compute) and each compute operator adds one (the phase programs use
  /// 5). Parsing, evaluation and destruction recurse once per level, so
  /// hostile source is rejected here instead of overflowing the stack.
  static constexpr std::uint32_t kMaxExprDepth = 256;

  Expr parse_expr() {
    std::uint32_t height = 0;
    return parse_expr(1, height);
  }

  /// An expression whose root sits `depth` levels deep; `height` receives
  /// the levels of its own tree, so depth + height - 1 is its deepest level.
  Expr parse_expr(std::uint32_t depth, std::uint32_t& height) {
    const Token t = lex_.take();
    height = 1;
    switch (t.kind) {
      case TokKind::Number: return Expr(Value(t.number));
      case TokKind::Variable: return Expr(VarRef{program_.intern_variable(t.text)});
      case TokKind::Sym:
        return t.text == "nil" ? Expr(Value{}) : Expr(Value(program_.symbols().intern(t.text)));
      case TokKind::LParen: return parse_call_expr(depth, height);
      default: throw ParseError("expected expression", t.line);
    }
  }

  /// Throws unless an expression level `depth` is within the bound; `at` is
  /// the token that would open it.
  static void check_depth(std::uint32_t depth, const Token& at) {
    if (depth > kMaxExprDepth) {
      throw ParseError(
          "expression nested more than " + std::to_string(kMaxExprDepth) + " levels deep",
          at.line, at.col);
    }
  }

  Expr parse_operand(std::uint32_t depth, std::uint32_t& height) {
    check_depth(depth, lex_.peek());
    return parse_expr(depth, height);
  }

  Expr parse_call_expr(std::uint32_t depth, std::uint32_t& height) {
    Token head = expect(TokKind::Sym, "function name");
    if (head.text == "compute") return parse_compute(depth, height);
    // `(call fn args...)` names an external function explicitly; a bare
    // `(fn args...)` also works for anything that isn't a reserved form.
    if (head.text == "call") head = expect(TokKind::Sym, "external function name");
    CallExpr call;
    call.function = program_.symbols().intern(head.text);
    while (lex_.peek().kind != TokKind::RParen) {
      std::uint32_t arg = 0;
      call.args.push_back(parse_operand(depth + 1, arg));
      height = std::max(height, arg + 1);
    }
    lex_.take();
    return Expr(std::move(call));
  }

  /// `(compute e op e [op e ...])` — left-associative infix arithmetic. The
  /// operator tree hangs one level below the form, and each operator pushes
  /// the tree built so far one level deeper.
  Expr parse_compute(std::uint32_t depth, std::uint32_t& height) {
    const std::uint32_t root = depth + 1;
    Expr acc = parse_operand(root, height);
    while (lex_.peek().kind != TokKind::RParen) {
      const Token op = lex_.take();
      std::string op_name;
      if (op.kind == TokKind::Sym) {
        op_name = op.text;  // + - * // mod
      } else if (op.kind == TokKind::Pred && op.pred == Predicate::Gt) {
        throw ParseError("comparison not allowed in compute", op.line);
      } else {
        throw ParseError("expected arithmetic operator in compute", op.line);
      }
      if (!arith_op(op_name)) {
        throw ParseError("unknown compute operator: " + op_name, op.line);
      }
      check_depth(root + height, op);
      CallExpr call;
      call.function = program_.symbols().intern(op_name);
      call.args.push_back(std::move(acc));
      std::uint32_t operand = 0;
      call.args.push_back(parse_operand(root + 1, operand));
      height = std::max(height, operand) + 1;
      acc = Expr(std::move(call));
    }
    lex_.take();
    ++height;  // the form's own level
    return acc;
  }

  [[nodiscard]] ClassIndex ce_class_for_index(std::uint32_t one_based, int line) {
    // modify/remove index counts positive CEs only (OPS5 numbers matchable CEs).
    std::uint32_t seen = 0;
    for (const auto& ce : current_lhs_) {
      if (ce.negated) continue;
      if (++seen == one_based) return ce.cls;
    }
    throw ParseError("modify/remove CE index out of range", line);
  }

  // parse_production stores its in-progress LHS here so modify can resolve
  // attribute names against the right class.
  std::vector<ConditionElement> current_lhs_;

  Program& program_;
  Lexer lex_;
};

}  // namespace

void parse_into(Program& program, std::string_view source) {
  Parser parser(program, source);
  parser.run();
}

Program parse_program(std::string_view source) {
  Program program;
  parse_into(program, source);
  program.freeze();
  return program;
}

}  // namespace psmsys::ops5
