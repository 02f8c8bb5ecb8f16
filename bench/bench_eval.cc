// Compiled vs interpreted predicate evaluation (the per-token inner
// loop of every matching layer): ns/eval across representative predicate
// shapes — constant selection, multi-conjunct selection, arithmetic,
// string functions, a two-variable join conjunct, and a NULL-heavy
// disjunction. The interpreted baseline is exactly what the hot paths
// ran before compilation landed: a fresh Bindings per token plus a
// tree-walk of the shared_ptr expression graph.
//
// Each shape also gets a batched lane (BM_BatchedEval / the batched
// join conjunct) sweeping TokenBatch sizes 8/64/256 through EvalBoolBatch;
// items processed counts tokens so ns/item is comparable across lanes.
//
// `bench_eval --smoke` times the selection and join shapes in 7
// interleaved pairs per ratio and asserts, on the median paired speedup,
// the >=3x compiled-over-interpreted acceptance bound plus the >=2x
// batched-over-scalar-compiled bound; CI runs it on every push and
// scripts/run_bench.sh records the sweeps in BENCH_eval.json and
// BENCH_batch.json.

#include "bench/bench_common.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "expr/compile.h"

namespace tman::bench {
namespace {

Schema EvalSchema() {
  return Schema({{"k", DataType::kInt},
                 {"v", DataType::kInt},
                 {"price", DataType::kFloat},
                 {"symbol", DataType::kVarchar}});
}

/// Tokens with a spread of values; every `null_every`-th k/v is NULL.
std::vector<Tuple> MakeTuples(int n, int null_every = 0) {
  Random rng(17);
  std::vector<Tuple> tuples;
  tuples.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Value k = Value::Int(static_cast<int64_t>(rng.Uniform(1000)));
    Value v = Value::Int(static_cast<int64_t>(rng.Uniform(1000)));
    if (null_every > 0 && i % null_every == 0) {
      k = Value::Null();
      v = Value::Null();
    }
    tuples.emplace_back(std::vector<Value>{
        std::move(k), std::move(v),
        Value::Float(static_cast<double>(rng.Uniform(400))),
        Value::String("SYM" + std::to_string(rng.Uniform(8)))});
  }
  return tuples;
}

/// All lanes walk a 256-tuple ring; masking (not modulo) keeps the
/// harness loop out of the per-token numbers being compared.
constexpr size_t kTupleCount = 256;
constexpr size_t kTupleMask = kTupleCount - 1;

struct Shape {
  const char* name;
  const char* text;
  int null_every;  // 0 = no NULLs in the token stream
};

constexpr Shape kShapes[] = {
    {"int_selection", "t.k > 500", 0},
    {"conjunction4", "t.k > 10 and t.v < 900 and t.k <> 37 and t.v >= 0", 0},
    {"arithmetic", "t.price * 1.07 + 5 > 200", 0},
    {"string_fns", "upper(t.symbol) = 'SYM1' and length(t.symbol) > 3", 0},
    {"null_heavy", "t.k > 800 or t.v < 100", 3},
};

const Shape* FindShape(const std::string& name) {
  for (const Shape& s : kShapes) {
    if (name == s.name) return &s;
  }
  std::fprintf(stderr, "unknown shape: %s\n", name.c_str());
  std::abort();
}

// --- single-variable shapes: compiled vs interpreted -------------------------

void BM_CompiledEval(benchmark::State& state, const std::string& shape_name) {
  const Shape* shape = FindShape(shape_name);
  Schema schema = EvalSchema();
  BindingLayout layout;
  layout.Add("t", &schema);
  auto prog = TryCompilePredicate(MustParse(shape->text), layout);
  if (prog == nullptr) {
    std::fprintf(stderr, "shape %s did not compile\n", shape->name);
    std::abort();
  }
  std::vector<Tuple> tuples = MakeTuples(kTupleCount, shape->null_every);
  size_t i = 0;
  for (auto _ : state) {
    const Tuple* row[] = {&tuples[i++ & kTupleMask]};
    auto pass = prog->EvalBool(row, 1);
    benchmark::DoNotOptimize(pass.ok() && *pass);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_InterpretedEval(benchmark::State& state,
                        const std::string& shape_name) {
  const Shape* shape = FindShape(shape_name);
  Schema schema = EvalSchema();
  ExprPtr e = MustParse(shape->text);
  std::vector<Tuple> tuples = MakeTuples(kTupleCount, shape->null_every);
  size_t i = 0;
  for (auto _ : state) {
    Bindings b;
    b.Bind("t", &schema, &tuples[i++ & kTupleMask]);
    auto pass = EvalPredicate(e, b);
    benchmark::DoNotOptimize(pass.ok() && *pass);
  }
  state.SetItemsProcessed(state.iterations());
}

// --- the join conjunct: two bound variables ----------------------------------

constexpr const char* kJoinText = "a.k = b.k and a.v < b.v";

void BM_CompiledJoinConjunct(benchmark::State& state) {
  Schema schema = EvalSchema();
  BindingLayout layout;
  layout.Add("a", &schema);
  layout.Add("b", &schema);
  auto prog = TryCompilePredicate(MustParse(kJoinText), layout);
  if (prog == nullptr) std::abort();
  std::vector<Tuple> tuples = MakeTuples(kTupleCount);
  size_t i = 0;
  for (auto _ : state) {
    const Tuple* row[] = {&tuples[i & kTupleMask],
                          &tuples[(i + 7) & kTupleMask]};
    ++i;
    auto pass = prog->EvalBool(row, 2);
    benchmark::DoNotOptimize(pass.ok() && *pass);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_InterpretedJoinConjunct(benchmark::State& state) {
  Schema schema = EvalSchema();
  ExprPtr e = MustParse(kJoinText);
  std::vector<Tuple> tuples = MakeTuples(kTupleCount);
  size_t i = 0;
  for (auto _ : state) {
    Bindings b;
    b.Bind("a", &schema, &tuples[i & kTupleMask]);
    b.Bind("b", &schema, &tuples[(i + 7) & kTupleMask]);
    ++i;
    auto pass = EvalPredicate(e, b);
    benchmark::DoNotOptimize(pass.ok() && *pass);
  }
  state.SetItemsProcessed(state.iterations());
}

// --- batched VM lanes: one EvalBatch per batch of tokens ---------------------

/// ns/token for the batched VM at a swept batch size; compare against
/// BM_CompiledEval (the scalar dispatch loop) on the same shape. Items
/// processed counts TOKENS, so ns/item is directly comparable.
void BM_BatchedEval(benchmark::State& state, const std::string& shape_name) {
  const Shape* shape = FindShape(shape_name);
  const size_t batch_size = static_cast<size_t>(state.range(0));
  Schema schema = EvalSchema();
  BindingLayout layout;
  layout.Add("t", &schema);
  auto prog = TryCompilePredicate(MustParse(shape->text), layout);
  if (prog == nullptr) {
    std::fprintf(stderr, "shape %s did not compile\n", shape->name);
    std::abort();
  }
  std::vector<Tuple> tuples = MakeTuples(kTupleCount, shape->null_every);
  TokenBatch batch(1);
  BatchResult result;
  std::vector<uint32_t> selection;
  size_t i = 0;
  for (auto _ : state) {
    batch.Clear();
    for (size_t k = 0; k < batch_size; ++k) {
      batch.Append(&tuples[i++ & kTupleMask]);
    }
    selection.clear();
    auto s = prog->EvalBoolBatch(batch, &result, &selection);
    benchmark::DoNotOptimize(s.ok() && selection.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch_size));
}

void BM_BatchedJoinConjunct(benchmark::State& state) {
  const size_t batch_size = static_cast<size_t>(state.range(0));
  Schema schema = EvalSchema();
  BindingLayout layout;
  layout.Add("a", &schema);
  layout.Add("b", &schema);
  auto prog = TryCompilePredicate(MustParse(kJoinText), layout);
  if (prog == nullptr) std::abort();
  std::vector<Tuple> tuples = MakeTuples(kTupleCount);
  TokenBatch batch(2);
  BatchResult result;
  std::vector<uint32_t> selection;
  size_t i = 0;
  for (auto _ : state) {
    batch.Clear();
    for (size_t k = 0; k < batch_size; ++k) {
      batch.Append(&tuples[i & kTupleMask],
                   &tuples[(i + 7) & kTupleMask]);
      ++i;
    }
    selection.clear();
    auto s = prog->EvalBoolBatch(batch, &result, &selection);
    benchmark::DoNotOptimize(s.ok() && selection.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch_size));
}

#define TMAN_EVAL_BENCH(shape)                                       \
  BENCHMARK_CAPTURE(BM_CompiledEval, shape, #shape);                 \
  BENCHMARK_CAPTURE(BM_InterpretedEval, shape, #shape);              \
  BENCHMARK_CAPTURE(BM_BatchedEval, shape, #shape)                   \
      ->Arg(8)                                                       \
      ->Arg(64)                                                      \
      ->Arg(256)

TMAN_EVAL_BENCH(int_selection);
TMAN_EVAL_BENCH(conjunction4);
TMAN_EVAL_BENCH(arithmetic);
TMAN_EVAL_BENCH(string_fns);
TMAN_EVAL_BENCH(null_heavy);
BENCHMARK(BM_CompiledJoinConjunct);
BENCHMARK(BM_InterpretedJoinConjunct);
BENCHMARK(BM_BatchedJoinConjunct)->Arg(8)->Arg(64)->Arg(256);

// --- --smoke: the acceptance bound, checked ----------------------------------

/// ns per run of one timed pass of `runs` runs of `fn`.
template <typename Fn>
double PassNs(int runs, Fn&& fn) {
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < runs; ++i) fn(i);
  std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count() / runs;
}

// Odd, so each median is one measured pass or pair.
constexpr int kPairs = 7;

double Median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

/// A smoke ratio: the medians of both sides' ns per item, and the median
/// of the per-pair speedups (baseline ns / candidate ns).
struct PairedRatio {
  double baseline_ns;
  double candidate_ns;
  double speedup;
};

/// Times `baseline` and `candidate` (each one pass, returning ns per item)
/// in kPairs back-to-back pairs, alternating which side runs first, and
/// takes the median speedup. A slow spell of the host then falls on both
/// sides of a pair, and one disturbed pair cannot move the median.
template <typename Baseline, typename Candidate>
PairedRatio MedianOfPairs(Baseline&& baseline, Candidate&& candidate) {
  std::vector<double> base, cand, speedup;
  for (int pair = 0; pair < kPairs; ++pair) {
    double b = 0;
    double c = 0;
    if (pair % 2 == 0) {
      b = baseline();
      c = candidate();
    } else {
      c = candidate();
      b = baseline();
    }
    base.push_back(b);
    cand.push_back(c);
    speedup.push_back(b / c);
  }
  return {Median(base), Median(cand), Median(speedup)};
}

int RunSmoke() {
  constexpr int kEvals = 200000;
  Schema schema = EvalSchema();
  std::vector<Tuple> tuples = MakeTuples(kTupleCount);
  int failures = 0;

  auto check = [&](const char* what, const PairedRatio& r) {
    std::printf(
        "bench_eval --smoke: %s interpreted %.1f ns/eval, compiled %.1f "
        "ns/eval, median paired speedup %.2fx\n",
        what, r.baseline_ns, r.candidate_ns, r.speedup);
    if (r.speedup < 3.0) {
      std::fprintf(stderr,
                   "bench_eval --smoke FAILED: %s speedup %.2fx < 3x "
                   "acceptance bound\n",
                   what, r.speedup);
      ++failures;
    }
  };

  // Batched acceptance bound: the columnar VM must deliver >= 2x the
  // scalar compiled path's per-token throughput on the same workload.
  auto check_batched = [&](const char* what, const PairedRatio& r) {
    std::printf(
        "bench_eval --smoke: %s scalar-compiled %.1f ns/token, batched %.1f "
        "ns/token, median paired speedup %.2fx\n",
        what, r.baseline_ns, r.candidate_ns, r.speedup);
    if (r.speedup < 2.0) {
      std::fprintf(stderr,
                   "bench_eval --smoke FAILED: %s batched speedup %.2fx < 2x "
                   "acceptance bound\n",
                   what, r.speedup);
      ++failures;
    }
  };

  {
    const Shape* shape = FindShape("conjunction4");
    ExprPtr e = MustParse(shape->text);
    BindingLayout layout;
    layout.Add("t", &schema);
    auto prog = TryCompilePredicate(e, layout);
    if (prog == nullptr) std::abort();
    // Warm both paths (thread-local register file, caches) untimed.
    for (int i = 0; i < 1000; ++i) {
      const Tuple* row[] = {&tuples[static_cast<size_t>(i) & kTupleMask]};
      (void)prog->EvalBool(row, 1);
    }
    auto interpreted = [&] {
      return PassNs(kEvals, [&](int i) {
        Bindings b;
        b.Bind("t", &schema, &tuples[static_cast<size_t>(i) & kTupleMask]);
        auto pass = EvalPredicate(e, b);
        benchmark::DoNotOptimize(pass.ok() && *pass);
      });
    };
    auto compiled = [&] {
      return PassNs(kEvals, [&](int i) {
        const Tuple* row[] = {&tuples[static_cast<size_t>(i) & kTupleMask]};
        auto pass = prog->EvalBool(row, 1);
        benchmark::DoNotOptimize(pass.ok() && *pass);
      });
    };
    check("selection(conjunction4)", MedianOfPairs(interpreted, compiled));

    constexpr size_t kBatch = kDefaultTokenBatchSize;
    TokenBatch batch(1);
    BatchResult result;
    std::vector<uint32_t> selection;
    size_t pos = 0;
    for (int i = 0; i < 16; ++i) {  // warm the batch scratch untimed
      batch.Clear();
      for (size_t k = 0; k < kBatch; ++k) {
        batch.Append(&tuples[pos++ & kTupleMask]);
      }
      (void)prog->EvalBoolBatch(batch, &result, &selection);
    }
    auto batched_per_token = [&] {
      return PassNs(kEvals / static_cast<int>(kBatch),
                    [&](int) {
                      batch.Clear();
                      for (size_t k = 0; k < kBatch; ++k) {
                        batch.Append(&tuples[pos++ & kTupleMask]);
                      }
                      selection.clear();
                      auto s = prog->EvalBoolBatch(batch, &result, &selection);
                      benchmark::DoNotOptimize(s.ok() && selection.size());
                    }) /
             static_cast<double>(kBatch);
    };
    check_batched("selection(conjunction4)",
                  MedianOfPairs(compiled, batched_per_token));
  }

  {
    ExprPtr e = MustParse(kJoinText);
    BindingLayout layout;
    layout.Add("a", &schema);
    layout.Add("b", &schema);
    auto prog = TryCompilePredicate(e, layout);
    if (prog == nullptr) std::abort();
    for (int i = 0; i < 1000; ++i) {
      const Tuple* row[] = {&tuples[static_cast<size_t>(i) & kTupleMask],
                            &tuples[static_cast<size_t>(i + 7) & kTupleMask]};
      (void)prog->EvalBool(row, 2);
    }
    auto interpreted = [&] {
      return PassNs(kEvals, [&](int i) {
        Bindings b;
        b.Bind("a", &schema, &tuples[static_cast<size_t>(i) & kTupleMask]);
        b.Bind("b", &schema,
               &tuples[static_cast<size_t>(i + 7) & kTupleMask]);
        auto pass = EvalPredicate(e, b);
        benchmark::DoNotOptimize(pass.ok() && *pass);
      });
    };
    auto compiled = [&] {
      return PassNs(kEvals, [&](int i) {
        const Tuple* row[] = {
            &tuples[static_cast<size_t>(i) & kTupleMask],
            &tuples[static_cast<size_t>(i + 7) & kTupleMask]};
        auto pass = prog->EvalBool(row, 2);
        benchmark::DoNotOptimize(pass.ok() && *pass);
      });
    };
    check("join_conjunct", MedianOfPairs(interpreted, compiled));

    constexpr size_t kBatch = kDefaultTokenBatchSize;
    TokenBatch batch(2);
    BatchResult result;
    std::vector<uint32_t> selection;
    size_t pos = 0;
    for (int i = 0; i < 16; ++i) {  // warm the batch scratch untimed
      batch.Clear();
      for (size_t k = 0; k < kBatch; ++k) {
        batch.Append(&tuples[pos & kTupleMask],
                     &tuples[(pos + 7) & kTupleMask]);
        ++pos;
      }
      (void)prog->EvalBoolBatch(batch, &result, &selection);
    }
    auto batched_per_token = [&] {
      return PassNs(kEvals / static_cast<int>(kBatch),
                    [&](int) {
                      batch.Clear();
                      for (size_t k = 0; k < kBatch; ++k) {
                        batch.Append(&tuples[pos & kTupleMask],
                                     &tuples[(pos + 7) & kTupleMask]);
                        ++pos;
                      }
                      selection.clear();
                      auto s = prog->EvalBoolBatch(batch, &result, &selection);
                      benchmark::DoNotOptimize(s.ok() && selection.size());
                    }) /
             static_cast<double>(kBatch);
    };
    check_batched("join_conjunct", MedianOfPairs(compiled, batched_per_token));
  }

  if (failures == 0) {
    std::printf(
        "bench_eval --smoke OK: all shapes >= 3x interpreted->compiled, "
        ">= 2x compiled->batched\n");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace tman::bench

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") {
      return tman::bench::RunSmoke();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
