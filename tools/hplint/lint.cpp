#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "token.hpp"

namespace hpsum::lint {

namespace {

bool ident_char(char c) noexcept {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True iff `text[pos..pos+word.size())` equals `word` with identifier
/// boundaries on both sides.
bool word_at(std::string_view text, std::size_t pos, std::string_view word) {
  if (pos + word.size() > text.size()) return false;
  if (text.substr(pos, word.size()) != word) return false;
  if (pos > 0 && ident_char(text[pos - 1])) return false;
  const std::size_t end = pos + word.size();
  if (end < text.size() && ident_char(text[end])) return false;
  return true;
}

/// Finds the next whole-word occurrence of `word` at or after `from`.
std::size_t find_word(std::string_view text, std::string_view word,
                      std::size_t from = 0) {
  for (std::size_t p = text.find(word, from); p != std::string_view::npos;
       p = text.find(word, p + 1)) {
    if (word_at(text, p, word)) return p;
  }
  return std::string_view::npos;
}

bool contains_word(std::string_view text, std::string_view word) {
  return find_word(text, word) != std::string_view::npos;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// One source line after preprocessing.
struct Line {
  std::string code;              ///< comments and literals stripped
  std::set<std::string> allows;  ///< rule names allowed on this line
};

/// Extracts `hplint: allow(a, b)` rule names from one comment line into
/// `out`; when `sites` is non-null, also records one AllowSite per rule
/// with its justification status (any word after the closing paren).
void harvest_allows(std::string_view comment, int line,
                    std::set<std::string>& out,
                    std::vector<AllowSite>* sites) {
  static constexpr std::string_view kTag = "hplint: allow(";
  for (std::size_t p = comment.find(kTag); p != std::string_view::npos;
       p = comment.find(kTag, p + 1)) {
    const std::size_t open = p + kTag.size();
    const std::size_t close = comment.find(')', open);
    if (close == std::string_view::npos) continue;
    const std::string_view after = comment.substr(close + 1);
    const bool justified =
        std::any_of(after.begin(), after.end(), [](char c) {
          return std::isalnum(static_cast<unsigned char>(c)) != 0;
        });
    std::string_view list = comment.substr(open, close - open);
    while (!list.empty()) {
      const std::size_t comma = list.find(',');
      std::string name(trim(list.substr(0, comma)));
      if (!name.empty()) {
        out.insert(name);
        if (sites != nullptr) {
          sites->push_back({"", line, std::move(name), justified});
        }
      }
      if (comma == std::string_view::npos) break;
      list.remove_prefix(comma + 1);
    }
  }
}

/// Rebuilds per-line code from the token stream, each token placed at its
/// original column so adjacency-sensitive patterns (`+=`, `reduction(`,
/// `std::accumulate`) survive intact. String/char/raw-string literals
/// collapse to empty `""`/`''` placeholders, comments vanish entirely (the
/// token layer is what fixes L1–L6 firing inside raw strings and multiline
/// block comments), and allow-annotations are harvested from the dropped
/// comment text.
std::vector<Line> build_lines(std::string_view src,
                              const std::vector<Token>& toks,
                              std::vector<AllowSite>* sites) {
  const std::size_t nlines =
      1 + static_cast<std::size_t>(std::count(src.begin(), src.end(), '\n'));
  std::vector<Line> lines(nlines);

  auto place = [&lines](int line, int col, std::string_view text) {
    std::string& code = lines[static_cast<std::size_t>(line - 1)].code;
    if (code.size() < static_cast<std::size_t>(col)) {
      code.append(static_cast<std::size_t>(col) - code.size(), ' ');
    }
    code.append(text);
  };

  for (const Token& t : toks) {
    switch (t.kind) {
      case TokKind::kComment: {
        std::string_view rest = t.text;
        int line = t.line;
        while (!rest.empty()) {
          const std::size_t nl = rest.find('\n');
          const std::string_view piece = rest.substr(0, nl);
          harvest_allows(piece, line,
                         lines[static_cast<std::size_t>(line - 1)].allows,
                         sites);
          if (nl == std::string_view::npos) break;
          rest.remove_prefix(nl + 1);
          ++line;
        }
        break;
      }
      case TokKind::kString:
      case TokKind::kRawString:
        place(t.line, t.col, "\"\"");
        break;
      case TokKind::kChar:
        place(t.line, t.col, "''");
        break;
      default:
        place(t.line, t.col, t.text);
        break;
    }
  }

  // An annotation on a comment-only line applies to the next code line, so
  // multi-line justification comments work: cascade allows downward through
  // blank/comment-only lines.
  for (std::size_t j = 0; j + 1 < lines.size(); ++j) {
    if (!lines[j].allows.empty() && trim(lines[j].code).empty()) {
      lines[j + 1].allows.insert(lines[j].allows.begin(),
                                 lines[j].allows.end());
    }
  }
  return lines;
}

bool allowed(const std::vector<Line>& lines, std::size_t idx,
             std::string_view rule) {
  if (lines[idx].allows.count(std::string(rule)) != 0) return true;
  if (idx > 0 && lines[idx - 1].allows.count(std::string(rule)) != 0) {
    return true;
  }
  return false;
}

bool path_contains(std::string_view path, std::string_view dir) {
  return path.find(dir) != std::string_view::npos;
}

// --- L1: floating-point accumulation --------------------------------------

/// Collects names declared as double/float scalars anywhere in the file
/// (one pass; block scoping is deliberately ignored — a false positive is
/// one annotation away, a false negative is a reproducibility bug).
std::set<std::string> collect_fp_vars(const std::vector<Line>& lines) {
  std::set<std::string> vars;
  for (const Line& ln : lines) {
    const std::string_view code = ln.code;
    for (std::string_view kw : {"double", "float"}) {
      for (std::size_t p = find_word(code, kw); p != std::string_view::npos;
           p = find_word(code, kw, p + 1)) {
        std::size_t q = p + kw.size();
        while (q < code.size() &&
               std::isspace(static_cast<unsigned char>(code[q]))) {
          ++q;
        }
        if (q >= code.size() || !ident_char(code[q]) || code[q] == '*') {
          continue;  // cast, pointer, template arg, ...
        }
        const std::size_t name_start = q;
        while (q < code.size() && ident_char(code[q])) ++q;
        std::string name(code.substr(name_start, q - name_start));
        while (q < code.size() &&
               std::isspace(static_cast<unsigned char>(code[q]))) {
          ++q;
        }
        // A following '(' means a function declaration, not a variable.
        if (q < code.size() && code[q] == '(') continue;
        if (name == "const" || name == "return") continue;
        vars.insert(std::move(name));
      }
    }
  }
  return vars;
}

void check_l1(std::string_view path, const std::vector<Line>& lines,
              std::vector<Violation>& out) {
  const std::set<std::string> fp_vars = collect_fp_vars(lines);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string_view code = lines[i].code;
    if (code.empty() || allowed(lines, i, rule_name(Rule::kFpAccumulate))) {
      continue;
    }
    if (contains_word(code, "accumulate") &&
        code.find("std::accumulate") != std::string_view::npos) {
      out.push_back({std::string(path), static_cast<int>(i + 1),
                     Rule::kFpAccumulate,
                     "std::accumulate in a contract reduction path",
                     "use reduce_hp()/HpFixed so the sum stays exact, or "
                     "annotate `// hplint: allow(fp-accumulate)` if this is "
                     "a deliberate baseline"});
      continue;
    }
    // OpenMP FP reduction clause: reduction(+:x) where x is an FP scalar,
    // or a literal fp type in the clause.
    if (const std::size_t rp = code.find("reduction(");
        rp != std::string_view::npos) {
      const std::size_t close = code.find(')', rp);
      const std::string_view clause =
          code.substr(rp, close == std::string_view::npos
                              ? std::string_view::npos
                              : close - rp + 1);
      bool fp = contains_word(clause, "double") ||
                contains_word(clause, "float");
      for (const std::string& v : fp_vars) {
        if (contains_word(clause, v)) fp = true;
      }
      if (fp && clause.find('+') != std::string_view::npos) {
        out.push_back({std::string(path), static_cast<int>(i + 1),
                       Rule::kFpAccumulate,
                       "OpenMP reduction(+) over a floating-point variable",
                       "declare an HP reduction instead "
                       "(HPSUM_DECLARE_OMP_REDUCTION) or annotate "
                       "`// hplint: allow(fp-accumulate)`"});
        continue;
      }
    }
    // var += / var -= where var is a known double/float scalar.
    for (std::size_t p = code.find("="); p != std::string_view::npos;
         p = code.find("=", p + 1)) {
      if (p == 0 || (code[p - 1] != '+' && code[p - 1] != '-')) continue;
      if (p + 1 < code.size() && code[p + 1] == '=') continue;  // ==, !=
      // Identifier immediately left of the += / -=.
      std::size_t q = p - 1;
      while (q > 0 && std::isspace(static_cast<unsigned char>(code[q - 1]))) {
        --q;
      }
      std::size_t e = q;
      while (q > 0 && ident_char(code[q - 1])) --q;
      const std::string name(code.substr(q, e - q));
      if (!name.empty() && fp_vars.count(name) != 0) {
        out.push_back({std::string(path), static_cast<int>(i + 1),
                       Rule::kFpAccumulate,
                       "floating-point accumulation `" + name + " " +
                           code[p - 1] + "=` in a contract reduction path",
                       "accumulate into an HP type (single rounding at the "
                       "end) or annotate `// hplint: allow(fp-accumulate)` "
                       "with the reason"});
        break;  // one finding per line is enough
      }
    }
  }
}

// --- L2: signed integer types in limb arithmetic --------------------------

void check_l2(std::string_view path, const std::vector<Line>& lines,
              std::vector<Violation>& out) {
  static constexpr std::string_view kSigned[] = {
      "int8_t", "int16_t", "int32_t", "int64_t", "intptr_t", "signed"};
  static constexpr std::string_view kLimbTokens[] = {
      "Limb", "LimbSpan", "ConstLimbSpan", "limb", "limbs"};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string_view code = lines[i].code;
    if (code.empty() || allowed(lines, i, rule_name(Rule::kSignedLimb))) {
      continue;
    }
    bool has_signed = false;
    std::string_view which;
    for (std::string_view t : kSigned) {
      if (contains_word(code, t)) {
        has_signed = true;
        which = t;
        break;
      }
    }
    if (!has_signed) continue;
    for (std::string_view t : kLimbTokens) {
      if (contains_word(code, t)) {
        out.push_back({std::string(path), static_cast<int>(i + 1),
                       Rule::kSignedLimb,
                       "signed type `" + std::string(which) +
                           "` mixed into limb arithmetic",
                       "HP limbs are util::Limb (uint64): signed overflow "
                       "is UB, the method needs defined unsigned wrap; use "
                       "util::Limb or annotate "
                       "`// hplint: allow(signed-limb)`"});
        break;
      }
    }
  }
}

// --- L3: discarded status/carry returns -----------------------------------

/// Functions whose return value is a status mask or carry that must not be
/// silently dropped. L3's curated list predates the symbol index; L7
/// covers every other HpStatus-returning function the index discovers and
/// leaves these names to L3 so each discard is reported exactly once.
constexpr std::string_view kStatusFns[] = {
    "add_impl",        "from_double_impl", "from_double_exact",
    "from_long_double_exact", "to_double_impl",
    "hp_add",          "hp_from_double",   "hp_from_double_exact",
    "hp_from_long_double", "hp_to_double",
    "add_into",        "sub_into",         "increment",
    "mul_small",
    // hpsum::kernel facade + bodies: all return sticky status masks too.
    "sub_impl",        "negate_impl",      "scatter_add_double",
    "hp_scatter_add",  "block_add",        "block_accumulate",
    "atomic_add"};

bool in_l3_list(std::string_view name) {
  for (std::string_view fn : kStatusFns) {
    if (fn == name) return true;
  }
  return false;
}

/// Strips trailing namespace qualifiers ("detail::", "util::", ...) and
/// whitespace from a statement prefix.
std::string_view strip_qualifiers(std::string_view prefix) {
  for (;;) {
    prefix = trim(prefix);
    if (prefix.size() >= 2 && prefix.substr(prefix.size() - 2) == "::") {
      std::size_t q = prefix.size() - 2;
      while (q > 0 && ident_char(prefix[q - 1])) --q;
      prefix = prefix.substr(0, q);
      continue;
    }
    return prefix;
  }
}

/// Last non-whitespace character of the nearest preceding non-blank code
/// line, or '\0' if none.
char prev_code_tail(const std::vector<Line>& lines, std::size_t idx) {
  for (std::size_t j = idx; j-- > 0;) {
    const std::string_view t = trim(lines[j].code);
    if (!t.empty()) return t.back();
  }
  return '\0';
}

void check_l3(std::string_view path, const std::vector<Line>& lines,
              std::vector<Violation>& out) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string_view code = lines[i].code;
    if (code.empty() || allowed(lines, i, rule_name(Rule::kDiscardStatus))) {
      continue;
    }
    for (std::string_view fn : kStatusFns) {
      const std::size_t p = find_word(code, fn);
      if (p == std::string_view::npos) continue;
      // Must be a call: next non-space char is '('.
      std::size_t q = p + fn.size();
      while (q < code.size() &&
             std::isspace(static_cast<unsigned char>(code[q]))) {
        ++q;
      }
      if (q >= code.size() || code[q] != '(') continue;
      // Method-style access (x.increment()) is someone else's API.
      if (p >= 1 && (code[p - 1] == '.' ||
                     (p >= 2 && code[p - 1] == '>' && code[p - 2] == '-'))) {
        continue;
      }
      const std::string_view prefix = strip_qualifiers(code.substr(0, p));
      bool discarded = false;
      if (prefix.empty()) {
        // Start of line: part of a larger expression only if the previous
        // line ends in an operator that consumes a value.
        const char tail = prev_code_tail(lines, i);
        discarded = tail == '\0' || tail == ';' || tail == '{' || tail == '}';
      } else {
        // `(void)foo()` is still a discard — the contract wants the mask
        // ORed into a sticky accumulator, not cast away.
        discarded = prefix == "(void)";
      }
      if (discarded) {
        out.push_back({std::string(path), static_cast<int>(i + 1),
                       Rule::kDiscardStatus,
                       "return status/carry of `" + std::string(fn) +
                           "` is discarded",
                       "OR it into a sticky HpStatus (status_ |= ...) or "
                       "annotate `// hplint: allow(discard-status)` with a "
                       "proof it cannot fire"});
        break;
      }
    }
  }
}

// --- L4: nondeterminism in deterministic paths ----------------------------

void check_l4(std::string_view path, const std::vector<Line>& lines,
              std::vector<Violation>& out) {
  struct Bad {
    std::string_view token;
    std::string_view why;
  };
  static constexpr Bad kBad[] = {
      {"rand", "rand() is seed/order dependent"},
      {"srand", "srand() reseeds global state"},
      {"random_device", "std::random_device is nondeterministic"},
      {"unordered_map", "unordered_map iteration order is unspecified"},
      {"unordered_set", "unordered_set iteration order is unspecified"},
      {"unordered_multimap", "unordered_multimap iteration order is unspecified"},
      {"unordered_multiset", "unordered_multiset iteration order is unspecified"},
  };
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string_view code = lines[i].code;
    if (code.empty() || allowed(lines, i, rule_name(Rule::kNondeterminism))) {
      continue;
    }
    // Preprocessor lines: an #include of <unordered_map> is not itself a
    // nondeterministic use; the iteration/call site is where L4 fires.
    if (!trim(code).empty() && trim(code).front() == '#') continue;
    for (const Bad& b : kBad) {
      const std::size_t p = find_word(code, b.token);
      if (p == std::string_view::npos) continue;
      // rand/srand must be calls; the containers count as uses anywhere.
      if (b.token == "rand" || b.token == "srand") {
        std::size_t q = p + b.token.size();
        while (q < code.size() &&
               std::isspace(static_cast<unsigned char>(code[q]))) {
          ++q;
        }
        if (q >= code.size() || code[q] != '(') continue;
      }
      out.push_back({std::string(path), static_cast<int>(i + 1),
                     Rule::kNondeterminism,
                     std::string(b.why) + " — deterministic paths must not "
                     "depend on it",
                     "use util::prng (seeded, reproducible) or an ordered "
                     "container; or annotate "
                     "`// hplint: allow(nondeterminism)`"});
      break;
    }
  }
}

// --- L5: raw telemetry in kernel code --------------------------------------

void check_l5(std::string_view path, const std::vector<Line>& lines,
              std::vector<Violation>& out) {
  struct Bad {
    std::string_view token;
    bool must_be_call;  ///< printf-family must be `token(`; cout/timers not
    std::string_view what;
  };
  static constexpr Bad kBad[] = {
      {"printf", true, "printf() output"},
      {"fprintf", true, "fprintf() output"},
      {"puts", true, "puts() output"},
      {"cout", false, "std::cout output"},
      {"cerr", false, "std::cerr output"},
      {"WallTimer", false, "ad-hoc WallTimer measurement"},
      {"ThreadCpuTimer", false, "ad-hoc ThreadCpuTimer measurement"},
  };
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string_view code = lines[i].code;
    if (code.empty() || allowed(lines, i, rule_name(Rule::kRawTelemetry))) {
      continue;
    }
    for (const Bad& b : kBad) {
      const std::size_t p = find_word(code, b.token);
      if (p == std::string_view::npos) continue;
      if (b.must_be_call) {
        std::size_t q = p + b.token.size();
        while (q < code.size() &&
               std::isspace(static_cast<unsigned char>(code[q]))) {
          ++q;
        }
        if (q >= code.size() || code[q] != '(') continue;
      }
      out.push_back({std::string(path), static_cast<int>(i + 1),
                     Rule::kRawTelemetry,
                     std::string(b.what) + " in kernel code",
                     "route kernel observability through hpsum::trace "
                     "counters (trace::count) so it "
                     "stays compile-out-able and machine-readable, or "
                     "annotate `// hplint: allow(raw-telemetry)`"});
      break;
    }
  }
}

// --- L6: duplicated limb kernels outside src/core/hp_kernel ----------------

void check_l6(std::string_view path, const std::vector<Line>& lines,
              std::vector<Violation>& out) {
  // Calls to the kernel *bodies* (the hpsum::kernel facade wrappers are the
  // sanctioned entry points), plus the classic hand-rolled carry/borrow
  // helper names a re-implementation would introduce.
  static constexpr std::string_view kKernelBodies[] = {
      "add_impl", "sub_impl", "negate_impl", "scatter_add_double",
      "addc",     "subb"};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string_view code = lines[i].code;
    if (code.empty() || allowed(lines, i, rule_name(Rule::kDuplicateKernel))) {
      continue;
    }
    for (std::string_view fn : kKernelBodies) {
      const std::size_t p = find_word(code, fn);
      if (p == std::string_view::npos) continue;
      // Must be a call: next non-space char is '('.
      std::size_t q = p + fn.size();
      while (q < code.size() &&
             std::isspace(static_cast<unsigned char>(code[q]))) {
        ++q;
      }
      if (q >= code.size() || code[q] != '(') continue;
      // A declaration (`HpStatus add_impl(...)`) has a type/identifier word
      // immediately before the name; a call has an operator, '(' or nothing.
      std::size_t r = p;
      while (r > 0 && std::isspace(static_cast<unsigned char>(code[r - 1]))) {
        --r;
      }
      if (r > 0 && ident_char(code[r - 1])) {
        std::size_t s = r;
        while (s > 0 && ident_char(code[s - 1])) --s;
        if (code.substr(s, r - s) != "return") continue;  // declaration
      }
      out.push_back({std::string(path), static_cast<int>(i + 1),
                     Rule::kDuplicateKernel,
                     "direct call to limb-kernel body `" + std::string(fn) +
                         "` outside src/core/hp_kernel",
                     "route through the hpsum::kernel facade (kernel::add / "
                     "kernel::sub / kernel::negate / kernel::scatter_add / "
                     "BlockAccumulator) so the carry chain has one proven "
                     "home, or annotate "
                     "`// hplint: allow(duplicate-kernel)` with the reason"});
      break;
    }
  }
}

// --- L7: interprocedural status escape (token-based) -----------------------

/// Index of the token before `i` in `toks` (no comments in `toks`), or
/// npos-like toks.size() when none.
constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Walks from the `(` at toks[open] to its matching `)`. Returns the index
/// of the close, or toks.size() if unbalanced.
std::size_t match_paren(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    if (toks[i].text == "(") ++depth;
    if (toks[i].text == ")") {
      --depth;
      if (depth == 0) return i;
    }
  }
  return toks.size();
}

void check_l7(std::string_view path, const std::vector<Line>& lines,
              const std::vector<Token>& toks, const SymbolIndex& index,
              std::vector<Violation>& out) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent || t.pp) continue;
    if (index.status_fns.count(t.text) == 0) continue;
    // Ambiguous overload set (`HpStatus add(Value)` vs `void add(double)`
    // somewhere else): name matching cannot tell which one this call hits,
    // so stay silent rather than guess.
    if (index.nonstatus_fns.count(t.text) != 0) continue;
    if (in_l3_list(t.text)) continue;  // L3's curated territory
    if (i + 1 >= toks.size() || !is_punct(toks[i + 1], "(")) continue;

    // Walk back over the qualifier chain (`hpsum::kernel::add` → decide on
    // what precedes `hpsum`).
    std::size_t s = i;
    while (s >= 2 && is_punct(toks[s - 1], "::") &&
           toks[s - 2].kind == TokKind::kIdent) {
      s -= 2;
    }
    if (s >= 1 && is_punct(toks[s - 1], "::")) --s;  // global-ns `::f(...)`
    const std::size_t p = (s == 0) ? kNone : s - 1;

    if (p != kNone) {
      const Token& prev = toks[p];
      // Member access is someone else's API; an identifier before the name
      // is a declaration/definition return type (`HpStatus f(...)`).
      if (prev.kind == TokKind::kIdent) continue;
      if (prev.kind != TokKind::kPunct) continue;
      if (prev.text != ";" && prev.text != "{" && prev.text != "}" &&
          prev.text != ")") {
        continue;  // `=`, `|=`, `(`, `,`, `return` path, operators: consumed
      }
    }

    // The call's value is discarded only if the statement ends right after
    // the argument list — `f(x) | g()` or `f(x).ok()` consume it.
    const std::size_t close = match_paren(toks, i + 1);
    if (close < toks.size() && close + 1 < toks.size() &&
        !is_punct(toks[close + 1], ";")) {
      continue;
    }

    const std::size_t line_idx = static_cast<std::size_t>(t.line - 1);
    if (allowed(lines, line_idx, rule_name(Rule::kStatusEscape))) continue;
    out.push_back({std::string(path), t.line, Rule::kStatusEscape,
                   "HpStatus returned by `" + std::string(t.text) +
                       "` (declared elsewhere in the tree) is discarded",
                   "OR it into a sticky HpStatus (st |= ...) or annotate "
                   "`// hplint: allow(status-escape)` with a proof it "
                   "cannot fire"});
  }
}

// --- L8: explicit memory orders on the concurrent surface ------------------

constexpr std::string_view kOrderedOps[] = {
    "load",      "store",     "exchange",
    "fetch_add", "fetch_sub", "fetch_and",
    "fetch_or",  "fetch_xor", "compare_exchange_weak",
    "compare_exchange_strong"};

/// Atomic names that publish the flight-recorder write index: readers
/// acquire on them, so the paired store must be release (flight.cpp push()).
bool is_publish_index(std::string_view name) {
  return name == "w" || name == "w_" || name == "write_idx" ||
         name == "write_index";
}

bool is_ordered_op(std::string_view name) {
  for (std::string_view op : kOrderedOps) {
    if (op == name) return true;
  }
  return false;
}

void check_l8(std::string_view path, const std::vector<Line>& lines,
              const std::vector<Token>& toks, const SymbolIndex& index,
              std::vector<Violation>& out) {
  const bool trace_scope = path_contains(path, "trace");
  const std::string_view rname = rule_name(Rule::kMemoryOrder);

  auto is_atomic_name = [&index](std::string_view name) {
    return index.atomic_names.count(name) != 0 ||
           index.alias_names.count(name) != 0;
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent || t.pp) continue;

    // Operator-form RMW on a declared atomic (`w += 1`, `++next_block`):
    // implicit seq_cst. Only bare declared names — aliases like `v` are too
    // collision-prone for this shape.
    if (index.atomic_names.count(t.text) != 0) {
      const bool post =
          i + 1 < toks.size() && toks[i + 1].kind == TokKind::kPunct &&
          (toks[i + 1].text == "++" || toks[i + 1].text == "--" ||
           toks[i + 1].text == "+=" || toks[i + 1].text == "-=" ||
           toks[i + 1].text == "|=" || toks[i + 1].text == "&=" ||
           toks[i + 1].text == "^=");
      const bool pre = i > 0 && toks[i - 1].kind == TokKind::kPunct &&
                       (toks[i - 1].text == "++" || toks[i - 1].text == "--");
      if ((post || pre) &&
          !allowed(lines, static_cast<std::size_t>(t.line - 1), rname)) {
        out.push_back({std::string(path), t.line, Rule::kMemoryOrder,
                       "operator-form RMW on atomic `" + std::string(t.text) +
                           "` is an implicit seq_cst operation",
                       "spell it as fetch_add/fetch_or/... with an explicit "
                       "std::memory_order, or annotate "
                       "`// hplint: allow(memory-order)`"});
        continue;
      }
    }

    if (!is_ordered_op(t.text)) continue;
    if (i < 2 || i + 1 >= toks.size()) continue;
    if (!is_punct(toks[i - 1], ".") && !is_punct(toks[i - 1], "->")) continue;
    if (!is_punct(toks[i + 1], "(")) continue;

    // Resolve the receiver: `limbs_[i].store` walks back over the balanced
    // subscript to `limbs_`; `detail::g_armed.store` lands on `g_armed`.
    std::size_t r = i - 2;
    if (is_punct(toks[r], "]")) {
      int depth = 0;
      std::size_t j = r;
      for (;; --j) {
        if (is_punct(toks[j], "]")) ++depth;
        if (is_punct(toks[j], "[")) {
          --depth;
          if (depth == 0) break;
        }
        if (j == 0) break;
      }
      if (j == 0 || depth != 0) continue;
      r = j - 1;
    }
    if (toks[r].kind != TokKind::kIdent || !is_atomic_name(toks[r].text)) {
      continue;
    }
    const std::string_view base = toks[r].text;

    const std::size_t close = match_paren(toks, i + 1);
    if (close >= toks.size()) continue;
    int orders = 0;
    bool relaxed = false;
    for (std::size_t j = i + 2; j < close; ++j) {
      if (toks[j].kind == TokKind::kIdent &&
          toks[j].text.rfind("memory_order", 0) == 0) {
        ++orders;
        if (toks[j].text == "memory_order_relaxed") relaxed = true;
        // `memory_order::relaxed` spells the enumerator separately.
        if (toks[j].text == "memory_order" && j + 2 < close &&
            is_punct(toks[j + 1], "::") &&
            is_ident(toks[j + 2], "relaxed")) {
          relaxed = true;
        }
      }
    }

    const std::size_t line_idx = static_cast<std::size_t>(t.line - 1);
    const bool cmpxchg = t.text.rfind("compare_exchange", 0) == 0;
    const int required = cmpxchg ? 2 : 1;
    if (orders < required && !allowed(lines, line_idx, rname)) {
      if (cmpxchg && orders == 1) {
        out.push_back({std::string(path), t.line, Rule::kMemoryOrder,
                       "`" + std::string(t.text) + "` on atomic `" +
                           std::string(base) +
                           "` names only the success order — the failure "
                           "order is implicitly derived",
                       "pass both orders explicitly "
                       "(e.g. `, std::memory_order_relaxed, "
                       "std::memory_order_relaxed`) so the contract is "
                       "visible at the call site"});
      } else {
        out.push_back({std::string(path), t.line, Rule::kMemoryOrder,
                       "atomic op `" + std::string(t.text) + "` on `" +
                           std::string(base) +
                           "` has no explicit std::memory_order (defaults "
                           "to seq_cst)",
                       "name the order the algorithm needs (relaxed for "
                       "counter shards, release/acquire for publication) "
                       "or annotate `// hplint: allow(memory-order)`"});
      }
      continue;
    }

    // The flight-recorder publish store: readers acquire on the write
    // index, so a relaxed store here silently un-publishes the payload.
    if (trace_scope && t.text == "store" && is_publish_index(base) &&
        relaxed && !allowed(lines, line_idx, rname)) {
      out.push_back({std::string(path), t.line, Rule::kMemoryOrder,
                     "relaxed store to ring write index `" +
                         std::string(base) +
                         "` — the publish path requires release",
                     "readers pair an acquire load with this store; use "
                     "std::memory_order_release (see flight.cpp push())"});
    }
  }
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string_view rule_id(Rule r) noexcept {
  switch (r) {
    case Rule::kFpAccumulate: return "L1";
    case Rule::kSignedLimb: return "L2";
    case Rule::kDiscardStatus: return "L3";
    case Rule::kNondeterminism: return "L4";
    case Rule::kRawTelemetry: return "L5";
    case Rule::kDuplicateKernel: return "L6";
    case Rule::kStatusEscape: return "L7";
    case Rule::kMemoryOrder: return "L8";
    case Rule::kAllowLedger: return "L9";
  }
  return "L?";
}

std::string_view rule_name(Rule r) noexcept {
  switch (r) {
    case Rule::kFpAccumulate: return "fp-accumulate";
    case Rule::kSignedLimb: return "signed-limb";
    case Rule::kDiscardStatus: return "discard-status";
    case Rule::kNondeterminism: return "nondeterminism";
    case Rule::kRawTelemetry: return "raw-telemetry";
    case Rule::kDuplicateKernel: return "duplicate-kernel";
    case Rule::kStatusEscape: return "status-escape";
    case Rule::kMemoryOrder: return "memory-order";
    case Rule::kAllowLedger: return "allow-ledger";
  }
  return "?";
}

std::string_view rule_summary(Rule r) noexcept {
  switch (r) {
    case Rule::kFpAccumulate:
      return "no floating-point accumulation in contract reduction paths";
    case Rule::kSignedLimb:
      return "no signed integer types in HP limb arithmetic";
    case Rule::kDiscardStatus:
      return "no discarded HpStatus/carry returns from the kernels";
    case Rule::kNondeterminism:
      return "no rand()/random_device/unordered iteration in deterministic paths";
    case Rule::kRawTelemetry:
      return "no raw printf/iostream/timer telemetry in src/core (use hpsum::trace)";
    case Rule::kDuplicateKernel:
      return "no duplicated limb kernels: call hpsum::kernel, not the bodies";
    case Rule::kStatusEscape:
      return "no discarded HpStatus from any function the symbol index knows";
    case Rule::kMemoryOrder:
      return "every atomic op on the concurrent surface names its memory_order";
    case Rule::kAllowLedger:
      return "every allow(...) is justified and accounted for in BASELINE.txt";
  }
  return "?";
}

bool rule_from_id(std::string_view id, Rule* out) noexcept {
  for (int i = 0; i < kRuleCount; ++i) {
    const Rule r = static_cast<Rule>(i);
    if (rule_id(r) == id) {
      *out = r;
      return true;
    }
  }
  return false;
}

bool rule_from_name(std::string_view name, Rule* out) noexcept {
  for (int i = 0; i < kRuleCount; ++i) {
    const Rule r = static_cast<Rule>(i);
    if (rule_name(r) == name) {
      *out = r;
      return true;
    }
  }
  return false;
}

RuleScope scope_for_path(std::string_view path) noexcept {
  RuleScope s;
  const bool contract = path_contains(path, "src/core") ||
                        path_contains(path, "src/backends") ||
                        path_contains(path, "src/cudasim") ||
                        path_contains(path, "src/mpisim") ||
                        path_contains(path, "src/phisim");
  s.l1 = contract;
  s.l2 = contract || path_contains(path, "src/util");
  s.l3 = true;  // discarding a status mask is wrong everywhere we scan
  s.l4 = path_contains(path, "src/");
  // L5 covers the kernel directory plus the instrumented planes that feed
  // the counter and flight exports (src/mpisim, src/audit, src/engine):
  // bench/examples print by design, and src/trace IS the sanctioned
  // telemetry sink. Legitimate exceptions (e.g. the audit reporters' own
  // output paths) are ledgered via L9 allow annotations, not scoped out
  // wholesale.
  s.l5 = path_contains(path, "src/core") ||
         path_contains(path, "src/mpisim") ||
         path_contains(path, "src/audit") ||
         path_contains(path, "src/engine");
  // L6 bans calling the kernel bodies anywhere in src/ EXCEPT their one
  // home (src/core/hp_kernel.*) and the limb primitives they sit on.
  s.l6 = path_contains(path, "src/") &&
         !path_contains(path, "src/core/hp_kernel") &&
         !path_contains(path, "src/util/limbs");
  // L7: a dropped status is wrong at any call site in the library proper;
  // bench/tests deliberately poke the raw kernels.
  s.l7 = path_contains(path, "src/");
  // L8: the concurrent surface — where a defaulted order is a silent
  // seq_cst (perf) or a wrong relaxed (correctness) nobody reviews. The
  // engine's shard seqlock is exactly such a surface.
  s.l8 = path_contains(path, "src/core") || path_contains(path, "src/trace") ||
         path_contains(path, "src/cudasim") ||
         path_contains(path, "src/engine");
  s.l9 = true;  // annotations are policed wherever they appear
  return s;
}

Ledger parse_baseline(std::string_view text) {
  Ledger out;
  int lineno = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    std::string_view line =
        text.substr(pos, nl == std::string_view::npos ? nl : nl - pos);
    ++lineno;
    pos = (nl == std::string_view::npos) ? text.size() + 1 : nl + 1;
    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    std::istringstream ss{std::string(line)};
    Ledger::Entry e;
    e.line = lineno;
    if (!(ss >> e.file >> e.rule >> e.count) || e.count < 0) continue;
    out.entries.push_back(std::move(e));
  }
  return out;
}

bool load_baseline(const std::string& path, Ledger* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = parse_baseline(buf.str());
  return true;
}

std::vector<Violation> lint_source(std::string_view path,
                                   std::string_view source,
                                   const Options& opts,
                                   std::vector<AllowSite>* allow_sites) {
  const std::vector<Token> toks = tokenize(source);

  std::vector<AllowSite> sites;
  const std::vector<Line> lines =
      build_lines(source, toks, allow_sites != nullptr ? &sites : nullptr);

  const RuleScope scope = scope_for_path(path);
  std::vector<Violation> out;
  if (opts.l1 && scope.l1) check_l1(path, lines, out);
  if (opts.l2 && scope.l2) check_l2(path, lines, out);
  if (opts.l3 && scope.l3) check_l3(path, lines, out);
  if (opts.l4 && scope.l4) check_l4(path, lines, out);
  if (opts.l5 && scope.l5) check_l5(path, lines, out);
  if (opts.l6 && scope.l6) check_l6(path, lines, out);

  if (opts.index != nullptr && ((opts.l7 && scope.l7) || (opts.l8 && scope.l8))) {
    std::vector<Token> code;
    code.reserve(toks.size());
    for (const Token& t : toks) {
      if (t.kind != TokKind::kComment) code.push_back(t);
    }
    if (opts.l7 && scope.l7) check_l7(path, lines, code, *opts.index, out);
    if (opts.l8 && scope.l8) {
      // L8 consults a file-local harvest, not the merged tree index: atomic
      // names collide across classes (`status_` is atomic in HpAtomic,
      // plain in HpFixed) and every atomic in this tree is operated on in
      // its declaring file. See index.hpp for the scoping rationale.
      SymbolIndex local;
      index_source(source, local);
      local.resolve();
      check_l8(path, lines, code, local, out);
    }
  }

  for (Violation& v : out) {
    const auto it = opts.severity.find(v.rule);
    v.severity = it != opts.severity.end() ? it->second : Severity::kError;
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Violation& a, const Violation& b) {
                     return a.line < b.line;
                   });

  if (allow_sites != nullptr) {
    for (AllowSite& s : sites) {
      s.file = std::string(path);
      allow_sites->push_back(std::move(s));
    }
  }
  return out;
}

std::vector<Violation> lint_file(const std::string& path, const Options& opts,
                                 bool* io_error,
                                 std::vector<AllowSite>* allow_sites) {
  if (io_error != nullptr) *io_error = false;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (io_error != nullptr) *io_error = true;
    return {};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return lint_source(path, buf.str(), opts, allow_sites);
}

std::vector<Violation> check_ledger(const std::vector<AllowSite>& sites,
                                    const Ledger& ledger,
                                    std::string_view baseline_path,
                                    Severity severity) {
  std::vector<Violation> out;

  // Per-site checks: the rule must exist and the annotation must say why.
  std::map<std::pair<std::string, std::string>, int> actual;
  std::map<std::pair<std::string, std::string>, int> first_line;
  for (const AllowSite& s : sites) {
    Rule r;
    if (!rule_from_name(s.rule, &r)) {
      out.push_back({s.file, s.line, Rule::kAllowLedger,
                     "allow(" + s.rule + ") names an unknown rule",
                     "valid names: fp-accumulate, signed-limb, "
                     "discard-status, nondeterminism, raw-telemetry, "
                     "duplicate-kernel, status-escape, memory-order, "
                     "allow-ledger"});
      continue;
    }
    if (!s.justified) {
      out.push_back({s.file, s.line, Rule::kAllowLedger,
                     "allow(" + s.rule + ") carries no justification",
                     "append the reason after the closing paren: "
                     "`// hplint: allow(" + s.rule + ") — why it is safe`"});
    }
    const auto key = std::make_pair(s.file, s.rule);
    if (actual.find(key) == actual.end()) first_line[key] = s.line;
    ++actual[key];
  }

  // Baseline comparison: more sites than ledgered fails at the file; fewer
  // means the ledger entry is stale and fails at the baseline.
  std::map<std::pair<std::string, std::string>, const Ledger::Entry*> base;
  for (const Ledger::Entry& e : ledger.entries) {
    Rule r;
    if (!rule_from_name(e.rule, &r)) {
      out.push_back({std::string(baseline_path), e.line, Rule::kAllowLedger,
                     "baseline entry names unknown rule `" + e.rule + "`",
                     "fix or remove the entry"});
      continue;
    }
    base[std::make_pair(e.file, e.rule)] = &e;
  }
  for (const auto& [key, n] : actual) {
    const auto it = base.find(key);
    const int ledgered = it != base.end() ? it->second->count : 0;
    if (n > ledgered) {
      out.push_back({key.first, first_line[key], Rule::kAllowLedger,
                     "file has " + std::to_string(n) + " allow(" + key.second +
                         ") suppression(s) but the baseline records " +
                         std::to_string(ledgered),
                     "a new suppression needs review: add/raise the entry in " +
                         std::string(baseline_path) +
                         " (`" + key.first + " " + key.second + " " +
                         std::to_string(n) + "`) in the same commit"});
    }
  }
  for (const auto& [key, e] : base) {
    const auto it = actual.find(key);
    const int n = it != actual.end() ? it->second : 0;
    if (n < e->count) {
      out.push_back({std::string(baseline_path), e->line, Rule::kAllowLedger,
                     "stale baseline entry: `" + e->file + " " + e->rule +
                         " " + std::to_string(e->count) + "` but the tree has " +
                         std::to_string(n),
                     "the suppression was removed — update or delete the "
                     "entry so the ledger stays exact"});
    }
  }

  for (Violation& v : out) v.severity = severity;
  std::stable_sort(out.begin(), out.end(),
                   [](const Violation& a, const Violation& b) {
                     if (a.file != b.file) return a.file < b.file;
                     return a.line < b.line;
                   });
  return out;
}

std::map<std::string, std::set<int>> parse_unified_diff(
    std::string_view diff) {
  std::map<std::string, std::set<int>> out;
  std::string cur;
  std::size_t pos = 0;
  while (pos < diff.size()) {
    const std::size_t nl = diff.find('\n', pos);
    const std::string_view line =
        diff.substr(pos, nl == std::string_view::npos ? nl : nl - pos);
    pos = (nl == std::string_view::npos) ? diff.size() : nl + 1;

    if (line.rfind("+++ ", 0) == 0) {
      std::string_view p = trim(line.substr(4));
      // Strip the `b/` prefix git uses; `/dev/null` marks a deletion.
      if (p.rfind("b/", 0) == 0) p.remove_prefix(2);
      cur = (p == "/dev/null") ? std::string() : std::string(p);
      continue;
    }
    if (line.rfind("@@", 0) != 0 || cur.empty()) continue;
    // `@@ -a,b +c,d @@` — the new-side start and length.
    const std::size_t plus = line.find('+');
    if (plus == std::string_view::npos) continue;
    int start = 0;
    std::size_t q = plus + 1;
    while (q < line.size() &&
           std::isdigit(static_cast<unsigned char>(line[q]))) {
      start = start * 10 + (line[q] - '0');
      ++q;
    }
    int len = 1;
    if (q < line.size() && line[q] == ',') {
      len = 0;
      ++q;
      while (q < line.size() &&
             std::isdigit(static_cast<unsigned char>(line[q]))) {
        len = len * 10 + (line[q] - '0');
        ++q;
      }
    }
    for (int k = 0; k < len; ++k) out[cur].insert(start + k);
  }
  return out;
}

std::string to_text(const std::vector<Violation>& vs) {
  std::string out;
  for (const Violation& v : vs) {
    out += v.file;
    out += ':';
    out += std::to_string(v.line);
    out += ": [";
    out += rule_id(v.rule);
    out += ':';
    out += rule_name(v.rule);
    out += v.severity == Severity::kWarn ? "] warning: " : "] ";
    out += v.message;
    out += "\n    hint: ";
    out += v.hint;
    out += '\n';
  }
  return out;
}

std::string to_json(const std::vector<Violation>& vs) {
  std::string out = "[";
  for (std::size_t i = 0; i < vs.size(); ++i) {
    const Violation& v = vs[i];
    if (i != 0) out += ',';
    out += "\n  {\"file\": \"" + json_escape(v.file) + "\"";
    out += ", \"line\": " + std::to_string(v.line);
    out += ", \"rule\": \"" + std::string(rule_id(v.rule)) + "\"";
    out += ", \"name\": \"" + std::string(rule_name(v.rule)) + "\"";
    out += ", \"severity\": \"";
    out += (v.severity == Severity::kWarn ? "warn" : "error");
    out += "\"";
    out += ", \"message\": \"" + json_escape(v.message) + "\"";
    out += ", \"hint\": \"" + json_escape(v.hint) + "\"}";
  }
  out += vs.empty() ? "]" : "\n]";
  return out;
}

std::string to_sarif(const std::vector<Violation>& vs) {
  std::string out;
  out +=
      "{\n"
      "  \"$schema\": "
      "\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
      "Schemata/sarif-schema-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"hplint\",\n"
      "          \"version\": \"2.0.0\",\n"
      "          \"informationUri\": "
      "\"https://example.invalid/hpsum/docs/ANALYSIS.md\",\n"
      "          \"rules\": [\n";
  for (int i = 0; i < kRuleCount; ++i) {
    const Rule r = static_cast<Rule>(i);
    out += "            {\"id\": \"" + std::string(rule_id(r)) +
           "\", \"name\": \"" + std::string(rule_name(r)) +
           "\", \"shortDescription\": {\"text\": \"" +
           json_escape(rule_summary(r)) +
           "\"}, \"defaultConfiguration\": {\"level\": \"error\"}}";
    out += (i + 1 < kRuleCount) ? ",\n" : "\n";
  }
  out +=
      "          ]\n"
      "        }\n"
      "      },\n"
      "      \"results\": [\n";
  for (std::size_t i = 0; i < vs.size(); ++i) {
    const Violation& v = vs[i];
    out += "        {\"ruleId\": \"" + std::string(rule_id(v.rule)) +
           "\", \"ruleIndex\": " + std::to_string(static_cast<int>(v.rule)) +
           ", \"level\": \"";
    out += (v.severity == Severity::kWarn ? "warning" : "error");
    out += "\", \"message\": {\"text\": \"" +
           json_escape(v.message + " (" + v.hint + ")") +
           "\"}, \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": \"" +
           json_escape(v.file) +
           "\"}, \"region\": {\"startLine\": " + std::to_string(v.line) +
           "}}}]}";
    out += (i + 1 < vs.size()) ? ",\n" : "\n";
  }
  out +=
      "      ]\n"
      "    }\n"
      "  ]\n"
      "}\n";
  return out;
}

}  // namespace hpsum::lint
