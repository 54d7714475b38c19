// Self-tests for hplint (tools/hplint): each rule L1–L9 must fire on known
// violations, stay quiet on clean idioms, honor `hplint: allow(...)`
// annotations, and survive comments/strings. The interprocedural rules
// (L7 status-escape, L8 memory-order) are driven through a SymbolIndex
// built here; L9 (allow-ledger) through check_ledger. Fixture files with
// deliberate violations live in tools/hplint/fixtures (path baked in at
// build time).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "lint.hpp"
#include "token.hpp"

namespace lint = hpsum::lint;

namespace {

// Pseudo-paths placing a snippet into (or out of) each rule's scope.
constexpr const char* kCore = "src/core/snippet.cpp";
constexpr const char* kBench = "bench/snippet.cpp";

std::set<int> lines_of(const std::vector<lint::Violation>& vs,
                       lint::Rule rule) {
  std::set<int> out;
  for (const auto& v : vs) {
    if (v.rule == rule) out.insert(v.line);
  }
  return out;
}

TEST(HplintRuleIds, StableNamesAndIds) {
  EXPECT_EQ(lint::rule_id(lint::Rule::kFpAccumulate), "L1");
  EXPECT_EQ(lint::rule_id(lint::Rule::kSignedLimb), "L2");
  EXPECT_EQ(lint::rule_id(lint::Rule::kDiscardStatus), "L3");
  EXPECT_EQ(lint::rule_id(lint::Rule::kNondeterminism), "L4");
  EXPECT_EQ(lint::rule_id(lint::Rule::kRawTelemetry), "L5");
  EXPECT_EQ(lint::rule_id(lint::Rule::kDuplicateKernel), "L6");
  EXPECT_EQ(lint::rule_name(lint::Rule::kFpAccumulate), "fp-accumulate");
  EXPECT_EQ(lint::rule_name(lint::Rule::kSignedLimb), "signed-limb");
  EXPECT_EQ(lint::rule_name(lint::Rule::kDiscardStatus), "discard-status");
  EXPECT_EQ(lint::rule_name(lint::Rule::kNondeterminism), "nondeterminism");
  EXPECT_EQ(lint::rule_name(lint::Rule::kRawTelemetry), "raw-telemetry");
  EXPECT_EQ(lint::rule_name(lint::Rule::kDuplicateKernel), "duplicate-kernel");
}

TEST(HplintScope, ContractDirsGetAllRules) {
  for (const char* p :
       {"src/core/hp_fixed.hpp", "src/backends/accumulators.hpp",
        "src/cudasim/reduce.hpp", "src/mpisim/hp_ops.cpp",
        "src/phisim/phisim.hpp"}) {
    const lint::RuleScope s = lint::scope_for_path(p);
    EXPECT_TRUE(s.l1) << p;
    EXPECT_TRUE(s.l2) << p;
    EXPECT_TRUE(s.l3) << p;
    EXPECT_TRUE(s.l4) << p;
    EXPECT_TRUE(s.l6) << p;
  }
}

TEST(HplintScope, DuplicateKernelExemptsTheKernelHome) {
  // The one sanctioned home of the limb kernels, and the limb primitives
  // they are built from, may call the bodies freely.
  EXPECT_FALSE(lint::scope_for_path("src/core/hp_kernel.hpp").l6);
  EXPECT_FALSE(lint::scope_for_path("src/core/hp_kernel.cpp").l6);
  EXPECT_FALSE(lint::scope_for_path("src/util/limbs.hpp").l6);
  // Everything else under src/ is in scope; bench/tests are not (they
  // differentially test the bodies on purpose).
  EXPECT_TRUE(lint::scope_for_path("src/core/hp_convert.hpp").l6);
  EXPECT_TRUE(lint::scope_for_path("src/backends/accumulators.hpp").l6);
  EXPECT_FALSE(lint::scope_for_path("bench/ablate_block.cpp").l6);
  EXPECT_FALSE(lint::scope_for_path("tests/test_block.cpp").l6);
}

TEST(HplintScope, UtilGetsLimbRuleButNotFpRule) {
  const lint::RuleScope s = lint::scope_for_path("src/util/limbs.hpp");
  EXPECT_FALSE(s.l1);  // util may hold double helpers (timers, stats)
  EXPECT_TRUE(s.l2);
  EXPECT_TRUE(s.l3);
  EXPECT_TRUE(s.l4);
}

TEST(HplintScope, BenchOnlyGetsDiscardRule) {
  const lint::RuleScope s = lint::scope_for_path("bench/fig6_mpi.cpp");
  EXPECT_FALSE(s.l1);  // benches drive the double baseline on purpose
  EXPECT_FALSE(s.l2);
  EXPECT_TRUE(s.l3);
  EXPECT_FALSE(s.l4);
  EXPECT_FALSE(s.l5);  // benches print results by design
}

TEST(HplintScope, RawTelemetryCoversInstrumentedPlanes) {
  EXPECT_TRUE(lint::scope_for_path("src/core/hp_convert.hpp").l5);
  // The planes feeding the counter and flight exports must route output
  // through trace probes too; their sanctioned printers carry L9 allow
  // annotations.
  EXPECT_TRUE(lint::scope_for_path("src/mpisim/mpisim.cpp").l5);
  EXPECT_TRUE(lint::scope_for_path("src/audit/health.cpp").l5);
  EXPECT_TRUE(lint::scope_for_path("src/engine/engine.cpp").l5);
  // src/trace IS the sanctioned sink; backends/sims report via counters but
  // keep their honest measured-wall printing paths out of L5's reach.
  EXPECT_FALSE(lint::scope_for_path("src/trace/trace.cpp").l5);
  EXPECT_FALSE(lint::scope_for_path("src/backends/scaling.hpp").l5);
  EXPECT_FALSE(lint::scope_for_path("examples/quickstart.cpp").l5);
}

// --- L1 -------------------------------------------------------------------

TEST(HplintL1, CatchesDoublePlusEquals) {
  const auto vs = lint::lint_source(kCore,
                                    "double sum = 0;\n"
                                    "void f(double x) { sum += x; }\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, lint::Rule::kFpAccumulate);
  EXPECT_EQ(vs[0].line, 2);
  EXPECT_NE(vs[0].message.find("sum"), std::string::npos);
}

TEST(HplintL1, CatchesStdAccumulateAndOmpReduction) {
  const auto vs = lint::lint_source(
      kCore,
      "double total = 0;\n"
      "auto s = std::accumulate(b, e, 0.0);\n"
      "#pragma omp parallel for reduction(+ : total)\n");
  EXPECT_EQ(lines_of(vs, lint::Rule::kFpAccumulate), (std::set<int>{2, 3}));
}

TEST(HplintL1, IgnoresIntegerAndHpAccumulation) {
  const auto vs = lint::lint_source(kCore,
                                    "int n = 0;\n"
                                    "n += 3;\n"
                                    "HpFixed<4, 2> acc;\n"
                                    "acc += 1.5;\n"
                                    "std::uint64_t limb = 0;\n"
                                    "limb += 7;\n");
  EXPECT_TRUE(vs.empty()) << lint::to_text(vs);
}

TEST(HplintL1, OutOfScopePathIsQuiet) {
  const auto vs = lint::lint_source(kBench,
                                    "double sum = 0;\n"
                                    "sum += 1.0;\n");
  EXPECT_TRUE(lines_of(vs, lint::Rule::kFpAccumulate).empty());
}

// --- L2 -------------------------------------------------------------------

TEST(HplintL2, CatchesSignedTypesTouchingLimbs) {
  const auto vs = lint::lint_source(
      kCore, "std::int64_t v = static_cast<std::int64_t>(limbs[0]);\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, lint::Rule::kSignedLimb);
}

TEST(HplintL2, WordBoundaryAvoidsKMaxLimbs) {
  // `Limb` inside the identifier `kMaxLimbsTotal` must not count as a limb
  // token; a signed loop bound alone is fine.
  const auto vs = lint::lint_source(
      kCore, "for (std::int32_t i = 0; i < kMaxLimbsTotal; ++i) f(i);\n");
  EXPECT_TRUE(vs.empty()) << lint::to_text(vs);
}

// --- L3 -------------------------------------------------------------------

TEST(HplintL3, CatchesDiscardedStatusCalls) {
  const auto vs = lint::lint_source(kCore,
                                    "void f() {\n"
                                    "  detail::add_impl(a, b, n);\n"
                                    "  (void)util::increment(a);\n"
                                    "}\n");
  EXPECT_EQ(lines_of(vs, lint::Rule::kDiscardStatus), (std::set<int>{2, 3}));
}

TEST(HplintL3, CapturedTestedReturnedAreFine) {
  const auto vs = lint::lint_source(
      kCore,
      "HpStatus g() {\n"
      "  HpStatus st = detail::add_impl(a, b, n);\n"
      "  st |= add_impl(a, b, n);\n"
      "  if (from_double_impl(a, n, k, r) != HpStatus::kOk) return st;\n"
      "  return add_impl(a, b, n);\n"
      "}\n");
  EXPECT_TRUE(lines_of(vs, lint::Rule::kDiscardStatus).empty())
      << lint::to_text(vs);
}

TEST(HplintL3, MultiLineArgumentPositionIsNotADiscard) {
  // A call that continues an expression from the previous line feeds its
  // value to the outer call.
  const auto vs = lint::lint_source(kCore,
                                    "st = combine(\n"
                                    "    add_impl(a, b, n),\n"
                                    "    x);\n");
  EXPECT_TRUE(lines_of(vs, lint::Rule::kDiscardStatus).empty())
      << lint::to_text(vs);
}

TEST(HplintL3, DeclarationIsNotACall) {
  const auto vs = lint::lint_source(
      kCore, "HpStatus add_impl(util::Limb* a, const util::Limb* b, int n);\n");
  EXPECT_TRUE(lines_of(vs, lint::Rule::kDiscardStatus).empty());
}

// --- L4 -------------------------------------------------------------------

TEST(HplintL4, CatchesRandAndUnorderedContainers) {
  const auto vs = lint::lint_source(kCore,
                                    "int a = rand();\n"
                                    "std::random_device rd;\n"
                                    "std::unordered_map<int, double> m;\n");
  EXPECT_EQ(lines_of(vs, lint::Rule::kNondeterminism),
            (std::set<int>{1, 2, 3}));
}

TEST(HplintL4, IncludesAndNonCallUsesAreFine) {
  const auto vs = lint::lint_source(kCore,
                                    "#include <unordered_map>\n"
                                    "int rand = 3;  // a variable, not a call\n");
  EXPECT_TRUE(vs.empty()) << lint::to_text(vs);
}

// --- L5 -------------------------------------------------------------------

TEST(HplintL5, CatchesPrintfStreamsAndTimers) {
  const auto vs = lint::lint_source(kCore,
                                    "std::printf(\"x\");\n"
                                    "std::cout << 1;\n"
                                    "util::WallTimer t;\n"
                                    "util::ThreadCpuTimer cpu;\n");
  EXPECT_EQ(lines_of(vs, lint::Rule::kRawTelemetry),
            (std::set<int>{1, 2, 3, 4}));
}

TEST(HplintL5, PrintfMustBeACallAndSnprintfIsFine) {
  // `snprintf` must not word-match `printf`; a declaration mentioning a
  // printf-like function pointer without a call is fine too.
  const auto vs = lint::lint_source(kCore,
                                    "std::snprintf(buf, sizeof buf, fmt);\n"
                                    "int printf_calls = 0;\n");
  EXPECT_TRUE(lines_of(vs, lint::Rule::kRawTelemetry).empty())
      << lint::to_text(vs);
}

TEST(HplintL5, OutOfScopePathIsQuiet) {
  const auto vs = lint::lint_source(kBench, "std::printf(\"result\\n\");\n");
  EXPECT_TRUE(lines_of(vs, lint::Rule::kRawTelemetry).empty());
}

TEST(HplintL5, AllowAnnotationSuppresses) {
  const auto vs = lint::lint_source(
      kCore,
      "// hplint: allow(raw-telemetry) — guarded debug aid\n"
      "std::printf(\"dbg\");\n");
  EXPECT_TRUE(vs.empty()) << lint::to_text(vs);
}

// --- L6 -------------------------------------------------------------------

TEST(HplintL6, CatchesKernelBodyCallsOutsideTheHome) {
  const auto vs = lint::lint_source(kCore,
                                    "void f() {\n"
                                    "  st |= detail::add_impl(a, b, n);\n"
                                    "  st |= detail::scatter_add_double(a, n, k, r);\n"
                                    "  a[0] = addc(a[0], b[0], c);\n"
                                    "}\n");
  EXPECT_EQ(lines_of(vs, lint::Rule::kDuplicateKernel),
            (std::set<int>{2, 3, 4}))
      << lint::to_text(vs);
}

TEST(HplintL6, FacadeCallsAndDeclarationsAreFine) {
  const auto vs = lint::lint_source(
      kCore,
      "HpStatus add_impl(util::Limb* a, const util::Limb* b, int n);\n"
      "st |= kernel::add(a, b, n);\n"
      "st |= kernel::scatter_add(a, n, k, r);\n"
      "blk.accumulate(xs);\n");
  EXPECT_TRUE(lines_of(vs, lint::Rule::kDuplicateKernel).empty())
      << lint::to_text(vs);
}

TEST(HplintL6, ReturnedBodyCallStillFires) {
  // `return add_impl(...)` forwards the status (no L3 finding) but is still
  // a body call outside the kernel home — L6 must fire.
  const auto vs = lint::lint_source(kCore,
                                    "HpStatus g() {\n"
                                    "  return detail::add_impl(a, b, n);\n"
                                    "}\n");
  EXPECT_EQ(lines_of(vs, lint::Rule::kDuplicateKernel), (std::set<int>{2}))
      << lint::to_text(vs);
  EXPECT_TRUE(lines_of(vs, lint::Rule::kDiscardStatus).empty())
      << lint::to_text(vs);
}

TEST(HplintL6, KernelHomePathIsQuiet) {
  const auto vs = lint::lint_source("src/core/hp_kernel.hpp",
                                    "st |= detail::add_impl(a, b, n);\n");
  EXPECT_TRUE(lines_of(vs, lint::Rule::kDuplicateKernel).empty())
      << lint::to_text(vs);
}

TEST(HplintL6, AllowAnnotationSuppresses) {
  const auto vs = lint::lint_source(
      kCore,
      "// hplint: allow(duplicate-kernel) — differential reference path\n"
      "st |= detail::add_impl(a, b, n);\n");
  EXPECT_TRUE(lines_of(vs, lint::Rule::kDuplicateKernel).empty())
      << lint::to_text(vs);
}

// --- Annotations, comments, strings ---------------------------------------

TEST(HplintAnnotations, SameLineAndLineAboveAndCommentBlock) {
  const auto vs = lint::lint_source(
      kCore,
      "double sum = 0;\n"
      "sum += 1;  // hplint: allow(fp-accumulate) — baseline\n"
      "// hplint: allow(fp-accumulate) — next-line form\n"
      "sum += 2;\n"
      "// hplint: allow(fp-accumulate) — a multi-line justification\n"
      "// that continues here\n"
      "sum += 3;\n");
  EXPECT_TRUE(vs.empty()) << lint::to_text(vs);
}

TEST(HplintAnnotations, AllowListsSeveralRules) {
  const auto vs = lint::lint_source(
      kCore,
      "// hplint: allow(fp-accumulate, nondeterminism)\n"
      "double x = rand(); x += 1;  // hplint: allow(fp-accumulate, nondeterminism)\n");
  EXPECT_TRUE(vs.empty()) << lint::to_text(vs);
}

TEST(HplintAnnotations, WrongRuleNameDoesNotSuppress) {
  const auto vs = lint::lint_source(
      kCore,
      "double sum = 0;\n"
      "sum += 1;  // hplint: allow(discard-status) — wrong rule\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, lint::Rule::kFpAccumulate);
}

TEST(HplintStripping, CommentsAndStringsDoNotFire) {
  const auto vs = lint::lint_source(
      kCore,
      "// sum += x; rand(); std::int64_t limb;\n"
      "/* double sum = 0; sum += 1; unordered_map */\n"
      "const char* doc = \"rand() and sum += x on int64_t limbs\";\n"
      "char c = '+';\n");
  EXPECT_TRUE(vs.empty()) << lint::to_text(vs);
}

// --- Output formats --------------------------------------------------------

TEST(HplintOutput, TextAndJsonCarryFileLineRuleHint) {
  const auto vs = lint::lint_source(kCore,
                                    "double s = 0;\n"
                                    "s += 1;\n");
  ASSERT_EQ(vs.size(), 1u);
  const std::string text = lint::to_text(vs);
  EXPECT_NE(text.find("src/core/snippet.cpp:2"), std::string::npos);
  EXPECT_NE(text.find("[L1:fp-accumulate]"), std::string::npos);
  EXPECT_NE(text.find("hint:"), std::string::npos);

  const std::string json = lint::to_json(vs);
  EXPECT_NE(json.find("\"file\": \"src/core/snippet.cpp\""),
            std::string::npos);
  EXPECT_NE(json.find("\"line\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"L1\""), std::string::npos);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
}

TEST(HplintOutput, EmptyJsonIsAnEmptyArray) {
  EXPECT_EQ(lint::to_json({}), "[]");
}

// --- Fixture files ---------------------------------------------------------

std::vector<lint::Violation> lint_fixture(const std::string& rel) {
  bool io_error = false;
  auto vs = lint::lint_file(std::string(HPLINT_FIXTURE_DIR "/") + rel, {},
                            &io_error);
  EXPECT_FALSE(io_error) << "cannot read fixture " << rel;
  return vs;
}

TEST(HplintFixtures, FpAccumulateFixture) {
  const auto vs = lint_fixture("src/core/bad_fp_accumulate.cpp");
  EXPECT_EQ(lines_of(vs, lint::Rule::kFpAccumulate),
            (std::set<int>{10, 16, 21, 23, 30}))
      << lint::to_text(vs);
  EXPECT_TRUE(std::all_of(vs.begin(), vs.end(), [](const auto& v) {
    return v.rule == lint::Rule::kFpAccumulate;
  })) << lint::to_text(vs);
}

TEST(HplintFixtures, SignedLimbFixture) {
  const auto vs = lint_fixture("src/core/bad_signed_limb.cpp");
  EXPECT_EQ(lines_of(vs, lint::Rule::kSignedLimb),
            (std::set<int>{10, 15, 16}))
      << lint::to_text(vs);
}

TEST(HplintFixtures, DiscardStatusFixture) {
  const auto vs = lint_fixture("src/core/bad_discard_status.cpp");
  EXPECT_EQ(lines_of(vs, lint::Rule::kDiscardStatus),
            (std::set<int>{13, 14, 15, 16}))
      << lint::to_text(vs);
}

TEST(HplintFixtures, NondeterminismFixture) {
  const auto vs = lint_fixture("src/core/bad_nondeterminism.cpp");
  EXPECT_EQ(lines_of(vs, lint::Rule::kNondeterminism),
            (std::set<int>{8, 12, 16}))
      << lint::to_text(vs);
}

TEST(HplintFixtures, RawTelemetryFixture) {
  const auto vs = lint_fixture("src/core/bad_raw_telemetry.cpp");
  EXPECT_EQ(lines_of(vs, lint::Rule::kRawTelemetry),
            (std::set<int>{9, 13, 14, 18}))
      << lint::to_text(vs);
}

TEST(HplintFixtures, DuplicateKernelFixture) {
  const auto vs = lint_fixture("src/core/bad_duplicate_kernel.cpp");
  EXPECT_EQ(lines_of(vs, lint::Rule::kDuplicateKernel),
            (std::set<int>{17, 18, 19, 20, 22}))
      << lint::to_text(vs);
}

TEST(HplintFixtures, AnnotatedFixtureIsClean) {
  const auto vs = lint_fixture("src/core/clean_annotated.cpp");
  EXPECT_TRUE(vs.empty()) << lint::to_text(vs);
}

// --- Tokenizer -------------------------------------------------------------

std::vector<lint::Token> toks_of_kind(std::string_view src,
                                      lint::TokKind kind) {
  std::vector<lint::Token> out;
  for (const lint::Token& t : lint::tokenize(src)) {
    if (t.kind == kind) out.push_back(t);
  }
  return out;
}

TEST(HplintTokenizer, RawStringsAreSingleTokens) {
  const auto raws = toks_of_kind(
      "auto a = R\"(sum += x;)\";\n"
      "auto b = R\"ex(acc += v; )not-the-end( still inside)ex\";\n"
      "auto c = u8R\"(rand())\";\n",
      lint::TokKind::kRawString);
  ASSERT_EQ(raws.size(), 3u);
  EXPECT_EQ(raws[0].text, "R\"(sum += x;)\"");
  EXPECT_NE(raws[1].text.find(")not-the-end("), std::string::npos);
  EXPECT_EQ(raws[2].text.substr(0, 4), "u8R\"");
}

TEST(HplintTokenizer, EncodingPrefixOnlyBindsWhenQuoteFollows) {
  // `use` must stay one identifier — `u` is an encoding prefix only when
  // the very next character opens the literal.
  const auto idents = toks_of_kind("use(u\"wide\", L'c', u8\"x\");",
                                   lint::TokKind::kIdent);
  ASSERT_EQ(idents.size(), 1u);
  EXPECT_EQ(idents[0].text, "use");
}

TEST(HplintTokenizer, CommentsCarryTheirFullTextAndLine) {
  const auto comments = toks_of_kind(
      "int x = 0;  // trailing note\n"
      "/* spans\n   two lines */\n"
      "int y = 1;\n",
      lint::TokKind::kComment);
  ASSERT_EQ(comments.size(), 2u);
  EXPECT_EQ(comments[0].line, 1);
  EXPECT_EQ(comments[1].line, 2);
  EXPECT_NE(comments[1].text.find("two lines"), std::string::npos);
}

TEST(HplintTokenizer, PreprocessorTokensAreFlagged) {
  const auto toks = lint::tokenize(
      "#define ADD(a, b) ((a) + (b))\n"
      "int add(int a, int b);\n");
  bool saw_pp_define = false;
  bool saw_plain_add = false;
  for (const auto& t : toks) {
    if (t.kind == lint::TokKind::kIdent && t.text == "define") {
      saw_pp_define = t.pp;
    }
    if (t.kind == lint::TokKind::kIdent && t.text == "add") {
      saw_plain_add = !t.pp;
    }
  }
  EXPECT_TRUE(saw_pp_define);
  EXPECT_TRUE(saw_plain_add);
}

TEST(HplintTokenizer, LinesAndColumnsAreOneAndZeroBased) {
  const auto toks = lint::tokenize("ab cd\n  ef\n");
  ASSERT_GE(toks.size(), 3u);
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[0].col, 0);
  EXPECT_EQ(toks[1].col, 3);
  EXPECT_EQ(toks[2].line, 2);
  EXPECT_EQ(toks[2].col, 2);
}

// --- Lexical false positives (the v1 regression class) ---------------------

TEST(HplintStripping, RawStringsAndMultilineCommentsDoNotFire) {
  const auto vs = lint::lint_source(
      kCore,
      "const char* h = R\"(\n"
      "  sum += x;\n"
      "  std::accumulate(b, e, 0.0);\n"
      "  rand();\n"
      ")\";\n"
      "/* double acc = 0;\n"
      "   acc += v;  — quoted violation, spans lines */\n"
      "int after = 0;\n");
  EXPECT_TRUE(vs.empty()) << lint::to_text(vs);
}

TEST(HplintStripping, AllowInsideRawStringIsNotAnAllowSite) {
  std::vector<lint::AllowSite> sites;
  const auto vs = lint::lint_source(
      kCore,
      "const char* doc = R\"(// hplint: allow(fp-accumulate) — quoted)\";\n"
      "double s = 0;\n"
      "s += 1;\n",
      {}, &sites);
  // The quoted annotation neither suppresses the real violation below it
  // nor registers as a ledger site.
  EXPECT_EQ(lines_of(vs, lint::Rule::kFpAccumulate), (std::set<int>{3}));
  EXPECT_TRUE(sites.empty());
}

TEST(HplintFixtures, RawStringFixtureIsClean) {
  std::vector<lint::AllowSite> sites;
  bool io_error = false;
  const auto vs = lint::lint_file(
      std::string(HPLINT_FIXTURE_DIR "/src/core/clean_raw_strings.cpp"), {},
      &io_error, &sites);
  EXPECT_FALSE(io_error);
  EXPECT_TRUE(vs.empty()) << lint::to_text(vs);
  EXPECT_TRUE(sites.empty());  // the quoted allow() must not be harvested
}

// --- Scope for the semantic rules ------------------------------------------

TEST(HplintScope, StatusEscapeCoversSrcOnly) {
  EXPECT_TRUE(lint::scope_for_path("src/rblas/rblas.cpp").l7);
  EXPECT_TRUE(lint::scope_for_path("src/core/hp_dyn.cpp").l7);
  EXPECT_TRUE(lint::scope_for_path("src/engine/engine.hpp").l7);
  EXPECT_FALSE(lint::scope_for_path("bench/fig6_mpi.cpp").l7);
  EXPECT_FALSE(lint::scope_for_path("examples/quickstart.cpp").l7);
}

TEST(HplintScope, MemoryOrderCoversTheConcurrentSurface) {
  EXPECT_TRUE(lint::scope_for_path("src/core/hp_atomic.hpp").l8);
  EXPECT_TRUE(lint::scope_for_path("src/trace/flight.cpp").l8);
  EXPECT_TRUE(lint::scope_for_path("src/cudasim/cudasim.cpp").l8);
  EXPECT_TRUE(lint::scope_for_path("src/engine/engine.hpp").l8);
  EXPECT_FALSE(lint::scope_for_path("src/util/limbs.hpp").l8);
  EXPECT_FALSE(lint::scope_for_path("bench/ablate_block.cpp").l8);
}

TEST(HplintScope, AllowLedgerAppliesEverywhere) {
  EXPECT_TRUE(lint::scope_for_path("src/core/hp_fixed.hpp").l9);
  EXPECT_TRUE(lint::scope_for_path("bench/fig6_mpi.cpp").l9);
  EXPECT_TRUE(lint::scope_for_path("examples/quickstart.cpp").l9);
}

// --- L7: interprocedural status escape -------------------------------------

/// Builds a resolved index over the given sources, as the CLI's pass 1 does
/// over the tree.
lint::SymbolIndex index_over(std::initializer_list<std::string_view> srcs) {
  lint::SymbolIndex idx;
  for (std::string_view s : srcs) lint::index_source(s, idx);
  idx.resolve();
  return idx;
}

TEST(HplintL7, DiscardAcrossTranslationUnits) {
  // The declaration lives in one "file", the discarding call in another:
  // exactly the case L3's curated list cannot cover.
  const auto idx = index_over(
      {"namespace be { HpStatus fold_shard(double* a, int n); }\n"});
  lint::Options opts;
  opts.index = &idx;
  const auto vs = lint::lint_source("src/rblas/driver.cpp",
                                    "void f(double* a, int n) {\n"
                                    "  be::fold_shard(a, n);\n"
                                    "}\n",
                                    opts);
  EXPECT_EQ(lines_of(vs, lint::Rule::kStatusEscape), (std::set<int>{2}))
      << lint::to_text(vs);
}

TEST(HplintL7, ConsumedValuesAreFine) {
  const auto idx = index_over({"HpStatus fold_shard(double* a, int n);\n"});
  lint::Options opts;
  opts.index = &idx;
  const auto vs = lint::lint_source(
      "src/rblas/driver.cpp",
      "HpStatus g(double* a, int n) {\n"
      "  HpStatus st = fold_shard(a, n);\n"
      "  st |= fold_shard(a, n);\n"
      "  if (fold_shard(a, n) != HpStatus::kOk) return st;\n"
      "  return fold_shard(a, n);\n"
      "}\n",
      opts);
  EXPECT_TRUE(lines_of(vs, lint::Rule::kStatusEscape).empty())
      << lint::to_text(vs);
}

TEST(HplintL7, AmbiguousOverloadSetStaysSilent) {
  // `add` returns HpStatus in one TU and void in another (HpAtomic::add was
  // the real-tree case): name matching cannot attribute the call, so the
  // rule must not guess.
  const auto idx = index_over({"HpStatus add(const Value& v);\n",
                               "void add(double r);\n"});
  lint::Options opts;
  opts.index = &idx;
  const auto vs = lint::lint_source("src/core/user.cpp",
                                    "void f() { add(1.5); }\n", opts);
  EXPECT_TRUE(lines_of(vs, lint::Rule::kStatusEscape).empty())
      << lint::to_text(vs);
}

TEST(HplintL7, MethodCallsAndDeclarationsAreNotFlagged) {
  const auto idx = index_over({"HpStatus fold_shard(double* a, int n);\n"});
  lint::Options opts;
  opts.index = &idx;
  const auto vs = lint::lint_source(
      "src/rblas/driver.cpp",
      "HpStatus fold_shard(double* a, int n);\n"   // re-declaration
      "void f(Pool& p) { p.fold_shard(nullptr, 0); }\n",  // someone else's API
      opts);
  EXPECT_TRUE(lines_of(vs, lint::Rule::kStatusEscape).empty())
      << lint::to_text(vs);
}

TEST(HplintL7, OffWithoutIndex) {
  const auto vs = lint::lint_source("src/rblas/driver.cpp",
                                    "void f() { fold_shard(a, n); }\n");
  EXPECT_TRUE(lines_of(vs, lint::Rule::kStatusEscape).empty());
}

TEST(HplintFixtures, StatusEscapeFixturePair) {
  bool io_error = false;
  lint::SymbolIndex idx;
  lint::index_file(HPLINT_FIXTURE_DIR "/src/backends/status_provider.hpp",
                   idx);
  lint::index_file(HPLINT_FIXTURE_DIR "/src/rblas/bad_status_escape.cpp",
                   idx);
  idx.resolve();
  lint::Options opts;
  opts.index = &idx;
  const auto vs = lint::lint_file(
      std::string(HPLINT_FIXTURE_DIR "/src/rblas/bad_status_escape.cpp"),
      opts, &io_error);
  EXPECT_FALSE(io_error);
  EXPECT_EQ(lines_of(vs, lint::Rule::kStatusEscape),
            (std::set<int>{11, 12, 13}))
      << lint::to_text(vs);
}

// --- L8: explicit memory orders --------------------------------------------

/// L8 gates on an index being present (the semantic pass), but resolves
/// atomic names from the linted file itself; an empty index is enough.
lint::Options l8_opts(const lint::SymbolIndex& idx) {
  lint::Options opts;
  opts.index = &idx;
  return opts;
}

TEST(HplintL8, DefaultedSeqCstAndOperatorForms) {
  const lint::SymbolIndex idx;
  const auto vs = lint::lint_source(
      "src/core/acc.cpp",
      "std::atomic<std::uint64_t> hits{0};\n"
      "void f(std::uint64_t v) {\n"
      "  hits.store(v);\n"
      "  hits.fetch_add(v);\n"
      "  hits += v;\n"
      "  ++hits;\n"
      "  hits.store(v, std::memory_order_relaxed);\n"
      "}\n",
      l8_opts(idx));
  EXPECT_EQ(lines_of(vs, lint::Rule::kMemoryOrder),
            (std::set<int>{3, 4, 5, 6}))
      << lint::to_text(vs);
}

TEST(HplintL8, CompareExchangeNeedsBothOrders) {
  const lint::SymbolIndex idx;
  const auto vs = lint::lint_source(
      "src/core/acc.cpp",
      "std::atomic<std::uint64_t> hits{0};\n"
      "void f(std::uint64_t o, std::uint64_t v) {\n"
      "  hits.compare_exchange_weak(o, v, std::memory_order_relaxed);\n"
      "  hits.compare_exchange_weak(o, v, std::memory_order_relaxed,\n"
      "                             std::memory_order_relaxed);\n"
      "}\n",
      l8_opts(idx));
  EXPECT_EQ(lines_of(vs, lint::Rule::kMemoryOrder), (std::set<int>{3}))
      << lint::to_text(vs);
}

TEST(HplintL8, NonAtomicReceiversAreIgnored) {
  // `status_` is a plain member here even though some other class declares
  // an atomic of the same name elsewhere — the lookup is file-local.
  const lint::SymbolIndex idx;
  const auto vs = lint::lint_source("src/core/acc.cpp",
                                    "HpStatus status_ = HpStatus::kOk;\n"
                                    "void f() {\n"
                                    "  status_ |= HpStatus::kAddOverflow;\n"
                                    "  counts.store(1);\n"
                                    "}\n",
                                    l8_opts(idx));
  EXPECT_TRUE(lines_of(vs, lint::Rule::kMemoryOrder).empty())
      << lint::to_text(vs);
}

TEST(HplintL8, AliasOfAtomicIsChecked) {
  const lint::SymbolIndex idx;
  const auto vs = lint::lint_source(
      "src/trace/shard.cpp",
      "std::atomic<std::uint64_t> values[8];\n"
      "void bump(int i) {\n"
      "  auto& slot = values[i];\n"
      "  slot.store(slot.load() + 1);\n"
      "}\n",
      l8_opts(idx));
  EXPECT_EQ(lines_of(vs, lint::Rule::kMemoryOrder), (std::set<int>{4}))
      << lint::to_text(vs);
}

TEST(HplintL8, OffWithoutIndex) {
  const auto vs = lint::lint_source("src/core/acc.cpp",
                                    "std::atomic<int> hits{0};\n"
                                    "void f() { hits.store(1); }\n");
  EXPECT_TRUE(lines_of(vs, lint::Rule::kMemoryOrder).empty());
}

TEST(HplintFixtures, MemoryOrderFixture) {
  bool io_error = false;
  const lint::SymbolIndex idx;
  const auto vs = lint::lint_file(
      std::string(HPLINT_FIXTURE_DIR "/src/core/bad_memory_order.cpp"),
      l8_opts(idx), &io_error);
  EXPECT_FALSE(io_error);
  EXPECT_EQ(lines_of(vs, lint::Rule::kMemoryOrder),
            (std::set<int>{12, 13, 14, 15, 16, 17, 19}))
      << lint::to_text(vs);
}

TEST(HplintFixtures, FlightPublishFixture) {
  bool io_error = false;
  const lint::SymbolIndex idx;
  const auto vs = lint::lint_file(
      std::string(HPLINT_FIXTURE_DIR "/src/trace/bad_flight_publish.cpp"),
      l8_opts(idx), &io_error);
  EXPECT_FALSE(io_error);
  ASSERT_EQ(lines_of(vs, lint::Rule::kMemoryOrder), (std::set<int>{16}))
      << lint::to_text(vs);
  EXPECT_NE(vs[0].message.find("release"), std::string::npos);
}

// --- L9: the suppression ledger --------------------------------------------

TEST(HplintL9, ParseBaselineSkipsCommentsAndMalformedLines) {
  const lint::Ledger l = lint::parse_baseline(
      "# header comment\n"
      "\n"
      "src/core/a.cpp fp-accumulate 2\n"
      "not-enough-fields\n"
      "src/core/b.cpp discard-status -1\n"
      "src/core/c.cpp raw-telemetry 1\n");
  ASSERT_EQ(l.entries.size(), 2u);
  EXPECT_EQ(l.entries[0].file, "src/core/a.cpp");
  EXPECT_EQ(l.entries[0].rule, "fp-accumulate");
  EXPECT_EQ(l.entries[0].count, 2);
  EXPECT_EQ(l.entries[0].line, 3);
  EXPECT_EQ(l.entries[1].line, 6);
}

TEST(HplintL9, LedgeredJustifiedSitesAreClean) {
  const lint::Ledger l = lint::parse_baseline("src/a.cpp fp-accumulate 2\n");
  const std::vector<lint::AllowSite> sites = {
      {"src/a.cpp", 10, "fp-accumulate", true},
      {"src/a.cpp", 20, "fp-accumulate", true},
  };
  const auto vs = lint::check_ledger(sites, l, "BASELINE.txt");
  EXPECT_TRUE(vs.empty()) << lint::to_text(vs);
}

TEST(HplintL9, UnjustifiedAndUnknownRuleFail) {
  const lint::Ledger l = lint::parse_baseline("src/a.cpp fp-accumulate 2\n");
  const std::vector<lint::AllowSite> sites = {
      {"src/a.cpp", 10, "fp-accumulate", false},  // no — after the paren
      {"src/a.cpp", 20, "fp-accumulate", true},
      {"src/b.cpp", 5, "no-such-rule", true},
  };
  const auto vs = lint::check_ledger(sites, l, "BASELINE.txt");
  ASSERT_EQ(vs.size(), 2u) << lint::to_text(vs);
  EXPECT_EQ(vs[0].line, 10);
  EXPECT_NE(vs[0].message.find("justification"), std::string::npos);
  EXPECT_EQ(vs[1].file, "src/b.cpp");
  EXPECT_NE(vs[1].message.find("unknown rule"), std::string::npos);
}

TEST(HplintL9, UnledgeredSuppressionFailsAtTheFile) {
  const lint::Ledger l = lint::parse_baseline("src/a.cpp fp-accumulate 1\n");
  const std::vector<lint::AllowSite> sites = {
      {"src/a.cpp", 10, "fp-accumulate", true},
      {"src/a.cpp", 20, "fp-accumulate", true},  // one more than ledgered
  };
  const auto vs = lint::check_ledger(sites, l, "BASELINE.txt");
  ASSERT_EQ(vs.size(), 1u) << lint::to_text(vs);
  EXPECT_EQ(vs[0].rule, lint::Rule::kAllowLedger);
  EXPECT_EQ(vs[0].file, "src/a.cpp");
  EXPECT_EQ(vs[0].line, 10);
  EXPECT_NE(vs[0].message.find("baseline records 1"), std::string::npos);
}

TEST(HplintL9, StaleEntryFailsAtTheBaseline) {
  const lint::Ledger l = lint::parse_baseline(
      "# removed suppressions linger here\n"
      "src/gone.cpp discard-status 3\n");
  const auto vs = lint::check_ledger({}, l, "tools/hplint/BASELINE.txt");
  ASSERT_EQ(vs.size(), 1u) << lint::to_text(vs);
  EXPECT_EQ(vs[0].file, "tools/hplint/BASELINE.txt");
  EXPECT_EQ(vs[0].line, 2);
  EXPECT_NE(vs[0].message.find("stale"), std::string::npos);
}

// --- Severity --------------------------------------------------------------

TEST(HplintSeverity, PerRuleWarnDowngradesOutput) {
  lint::Options opts;
  opts.severity[lint::Rule::kFpAccumulate] = lint::Severity::kWarn;
  const auto vs = lint::lint_source(kCore,
                                    "double s = 0;\n"
                                    "s += 1;\n",
                                    opts);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].severity, lint::Severity::kWarn);
  EXPECT_NE(lint::to_text(vs).find("warning:"), std::string::npos);
  EXPECT_NE(lint::to_json(vs).find("\"severity\": \"warn\""),
            std::string::npos);
}

// --- Diff parsing -----------------------------------------------------------

TEST(HplintDiff, ParsesAddedLinesPerFile) {
  const auto changed = lint::parse_unified_diff(
      "diff --git a/src/a.cpp b/src/a.cpp\n"
      "--- a/src/a.cpp\n"
      "+++ b/src/a.cpp\n"
      "@@ -4,0 +5,2 @@ void f()\n"
      "+  double s = 0;\n"
      "+  s += 1;\n"
      "@@ -20,1 +22 @@ void g()\n"
      "+  return;\n"
      "diff --git a/src/gone.cpp b/dev/null\n"
      "--- a/src/gone.cpp\n"
      "+++ /dev/null\n"
      "@@ -1,3 +0,0 @@\n"
      "-int x;\n");
  ASSERT_EQ(changed.size(), 1u);
  const auto it = changed.find("src/a.cpp");
  ASSERT_NE(it, changed.end());
  EXPECT_EQ(it->second, (std::set<int>{5, 6, 22}));
}

// --- SARIF ------------------------------------------------------------------

TEST(HplintSarif, CarriesSchemaRulesAndResults) {
  const auto vs = lint::lint_source(kCore,
                                    "double s = 0;\n"
                                    "s += 1;\n");
  ASSERT_EQ(vs.size(), 1u);
  const std::string sarif = lint::to_sarif(vs);
  EXPECT_NE(sarif.find("sarif-schema-2.1.0"), std::string::npos);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"hplint\""), std::string::npos);
  // All nine rules are declared even when only one fires.
  for (const char* id :
       {"\"L1\"", "\"L2\"", "\"L3\"", "\"L4\"", "\"L5\"", "\"L6\"",
        "\"L7\"", "\"L8\"", "\"L9\""}) {
    EXPECT_NE(sarif.find(id), std::string::npos) << id;
  }
  EXPECT_NE(sarif.find("\"ruleId\": \"L1\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleIndex\": 0"), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/core/snippet.cpp\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 2"), std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"error\""), std::string::npos);
}

TEST(HplintSarif, EmptyRunStillDeclaresTheTool) {
  const std::string sarif = lint::to_sarif({});
  EXPECT_NE(sarif.find("\"results\": ["), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"hplint\""), std::string::npos);
  EXPECT_EQ(sarif.find("\"ruleId\""), std::string::npos);  // no results
}

}  // namespace
