// Experiment E12 — query-view graph construction time. The Section 5.1
// graph has 2^n views, Σ_k C(n,k)·k! fat indexes, and a slice workload of
// up to 3^n queries; the seed builder walked every (query, view,
// permutation) triple serially. This bench times that retained reference
// against the fast builder (superset enumeration + prefix-class costing +
// sharded parallel emission) across cube dimensions, and reports per-dim
// speedups. The reference is capped at dimension 7 — the dim-8 triple loop
// takes minutes, which is the point of the fast path. Every row is the
// median of at least five builds, with its quartiles.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/check.h"
#include "core/cube_graph.h"
#include "data/synthetic.h"
#include "workload/workload.h"

namespace olapidx {
namespace {

constexpr int kMinDim = 4;
constexpr int kDefaultMaxDim = 7;
constexpr int kMaxReferenceDim = 7;

struct Timed {
  bench::TimingSummary ms;
  size_t structures = 0;
  size_t queries = 0;
};

// Times `reps` builds: the median with its quartiles.
template <typename BuildFn>
Timed TimeBuilds(int reps, const BuildFn& build) {
  Timed out;
  out.ms = bench::TimeRepeated(reps, [&] {
    CubeGraph cg = build();
    out.structures = cg.graph.num_structures();
    out.queries = cg.graph.num_queries();
  });
  return out;
}

void AddBuildRow(bench::BenchJsonReporter& rep, const std::string& label,
                 int dim, int reps, const Timed& t) {
  Json row = Json::Object();
  row.Set("label", Json::Str(label));
  row.Set("dim", Json::Number(dim));
  row.Set("structures", Json::Number(static_cast<double>(t.structures)));
  row.Set("queries", Json::Number(static_cast<double>(t.queries)));
  row.Set("reps", Json::Number(reps));
  row.Set("wall_ms", Json::Number(t.ms.median));
  row.Set("wall_ms_q1", Json::Number(t.ms.q1));
  row.Set("wall_ms_q3", Json::Number(t.ms.q3));
  rep.AddRun(std::move(row));
}

void RunBench(bench::BenchJsonReporter& rep, int max_dim) {
  std::printf("%-4s %10s %8s %12s %10s %10s %10s %8s %8s  %s\n", "dim",
              "structures", "queries", "reference_ms", "fast_t1_ms",
              "fast_t2_ms", "fast_t8_ms", "x_t1", "x_t8",
              "reference / fast_t1 [q1, q3]");
  for (int n = kMinDim; n <= max_dim; ++n) {
    SyntheticCube cube = UniformSyntheticCube(n, 100, 0.05);
    CubeLattice lattice(cube.schema);
    Workload workload = AllSliceQueries(lattice);
    // Medians of at least five builds: fewer cannot resolve a 10-15%
    // change on a shared host.
    const int reps = n <= 5 ? 9 : 5;
    const std::string dim = "dim" + std::to_string(n);

    Timed ref;
    const bool run_reference = n <= kMaxReferenceDim;
    if (run_reference) {
      ref = TimeBuilds(reps, [&] {
        return BuildCubeGraphReference(cube.schema, cube.sizes, workload,
                                       CubeGraphOptions{});
      });
      AddBuildRow(rep, dim + "/reference", n, reps, ref);
    }

    Timed fast[3];
    const size_t thread_counts[3] = {1, 2, 8};
    for (int i = 0; i < 3; ++i) {
      CubeGraphOptions options;
      options.num_threads = thread_counts[i];
      fast[i] = TimeBuilds(reps, [&] {
        StatusOr<CubeGraph> built =
            TryBuildCubeGraph(cube.schema, cube.sizes, workload, options);
        OLAPIDX_CHECK(built.ok());
        return *std::move(built);
      });
      AddBuildRow(rep,
                  dim + "/fast_t" + std::to_string(thread_counts[i]), n,
                  reps, fast[i]);
    }

    if (run_reference) {
      char spread[96];
      std::snprintf(spread, sizeof(spread), "[%.2f, %.2f] / [%.2f, %.2f]",
                    ref.ms.q1, ref.ms.q3, fast[0].ms.q1, fast[0].ms.q3);
      for (int i = 0; i < 3; ++i) {
        rep.AddScalar("speedup_" + dim + "_t" +
                          std::to_string(thread_counts[i]),
                      ref.ms.median / fast[i].ms.median);
      }
      std::printf(
          "%-4d %10zu %8zu %12.2f %10.2f %10.2f %10.2f %7.2fx %7.2fx  %s\n",
          n, fast[0].structures, fast[0].queries, ref.ms.median,
          fast[0].ms.median, fast[1].ms.median, fast[2].ms.median,
          ref.ms.median / fast[0].ms.median, ref.ms.median / fast[2].ms.median,
          spread);
    } else {
      std::printf("%-4d %10zu %8zu %12s %10.2f %10.2f %10.2f %8s %8s  "
                  "- / [%.2f, %.2f]\n",
                  n, fast[0].structures, fast[0].queries, "-",
                  fast[0].ms.median, fast[1].ms.median, fast[2].ms.median,
                  "-", "-", fast[0].ms.q1, fast[0].ms.q3);
    }
  }
}

}  // namespace
}  // namespace olapidx

int main(int argc, char** argv) {
  olapidx::bench::BenchArgs args =
      olapidx::bench::ParseBenchArgs(argc, argv, "graph_build", {"max-dim"});
  const int max_dim =
      static_cast<int>(args.GetInt("max-dim", olapidx::kDefaultMaxDim));
  if (max_dim < olapidx::kMinDim || max_dim > 8) {
    std::fprintf(stderr, "error: --max-dim must be in [%d, 8]\n",
                 olapidx::kMinDim);
    return 2;
  }
  olapidx::bench::BenchJsonReporter rep("graph_build");
  olapidx::RunBench(rep, max_dim);
  olapidx::bench::FinishBenchJson(rep, args);
  return 0;
}
