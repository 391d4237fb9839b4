//===- perfbench/driver.cpp - Host-performance benchmark driver -----------===//
///
/// Measures the simulator's own host speed end to end and, in a separate
/// traced run, where the host time goes per layer. Three closed-loop,
/// one-client, one-thread workloads:
///
///   paper-sweep     the 26 Selected workloads under the fig8 protocol, on a
///                   `none` leg and a `classcache` leg;
///   service-steady  4 tenants on 4 warm pool slots, seeded small requests
///                   under --check-removal=both, one request per serve();
///   service-churn   16 tenants over 4 slots arriving in blocks under
///                   classcache, so every new block recycles a slot
///                   (snapshot capture + restore).
///
///   perfbench_driver --workload W --seed N --seconds S --trace 0|1
///                    [--state-dir DIR] [--commit C] [--probe-fds IN,OUT]
///
/// Every layer is measured from outside, by timing calls into public entry
/// points; nothing inside the libraries is instrumented. The last line of
/// stdout is one JSON object {correct, attempted, failed, metrics}: the
/// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
/// See perfbench/README.md for the metric definitions.
///
//===----------------------------------------------------------------------===//

#include "bytecode/Compiler.h"
#include "core/Engine.h"
#include "core/EnginePool.h"
#include "core/Runner.h"
#include "frontend/Parser.h"
#include "jit/Jit.h"
#include "support/StringInterner.h"
#include "workloads/Workloads.h"

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace ccjs;

namespace {

//===----------------------------------------------------------------------===//
// Clocks, statistics, hashing
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;
const Clock::time_point ProcessStart = Clock::now();

double wallNow() {
  return std::chrono::duration<double>(Clock::now() - ProcessStart).count();
}

double cpuNow() {
  timespec T;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return double(T.tv_sec) + double(T.tv_nsec) * 1e-9;
}

/// Host-speed probe. The shared host runs this code up to 2x slower for
/// seconds to minutes at a time, which a per-operation best cannot filter
/// when it lasts a whole run. So the driver asks its parent (run.py) to
/// time a fixed pure-Python loop between passes: a program that does not
/// change with the repo, and that slows down with the host as this one
/// does. End-to-end timings are scaled by ReferenceSeconds / (the run's
/// best probe), i.e. to a fixed host speed. Without a parent (no
/// --probe-fds) the factor is 1.
class HostProbe {
public:
  static constexpr double ReferenceSeconds = 0.005;

  void connect(int In, int Out) {
    this->In = In;
    this->Out = Out;
  }
  /// Takes one probe; the parent runs it while this process waits.
  void sample() {
    if (Out < 0)
      return;
    char Buf[64];
    size_t N = 0;
    if (write(Out, "p\n", 2) != 2)
      return;
    while (N + 1 < sizeof(Buf) && read(In, Buf + N, 1) == 1 &&
           Buf[N] != '\n')
      ++N;
    Buf[N] = 0;
    double V = std::strtod(Buf, nullptr);
    if (V > 0) {
      Best = std::min(Best, V);
      ++Samples;
    }
  }
  double factor() const { return Samples ? ReferenceSeconds / Best : 1; }
  unsigned samples() const { return Samples; }

private:
  int In = -1, Out = -1;
  double Best = HUGE_VAL;
  unsigned Samples = 0;
};

HostProbe Probe;

/// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * double(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

struct Fnv {
  uint64_t H = 1469598103934665603ull;
  void bytes(const void *P, size_t N) {
    const auto *B = static_cast<const unsigned char *>(P);
    for (size_t I = 0; I < N; ++I) {
      H ^= B[I];
      H *= 1099511628211ull;
    }
  }
  void str(const std::string &S) { bytes(S.data(), S.size()); }
  void u64(uint64_t V) { bytes(&V, sizeof(V)); }
  void f64(double V) { bytes(&V, sizeof(V)); }
};

/// Folds the simulated values the determinism checks compare into \p H.
void hashStats(Fnv &H, const RunStats &S) {
  H.f64(S.CyclesTotal);
  H.f64(S.CyclesOptimized);
  H.u64(S.Instrs.total());
  H.u64(S.Instrs.PerCategory[unsigned(InstrCategory::Checks)]);
  H.u64(S.Dl1Accesses);
  H.u64(S.CcAccesses);
  H.u64(S.CcExceptions);
  H.u64(S.OptCompiles);
  H.u64(S.Deopts);
  H.u64(S.Heap.ObjectsAllocated);
}

/// SplitMix64: the benchmark's only source of input randomness.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  unsigned below(unsigned N) { return static_cast<unsigned>(next() % N); }
};

template <typename T> void shuffle(std::vector<T> &V, Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.below(static_cast<unsigned>(I))]);
}

std::vector<unsigned> shuffledRange(unsigned N, Rng &R) {
  std::vector<unsigned> V(N);
  for (unsigned I = 0; I < N; ++I)
    V[I] = I;
  shuffle(V, R);
  return V;
}

//===----------------------------------------------------------------------===//
// Spans (traced run only)
//===----------------------------------------------------------------------===//

struct Span {
  const char *Name;
  double Start = 0, End = 0;
  int Parent = -1;
  int64_t Request = -1;
};

/// In-memory span recorder. Spans nest by call structure; a disabled
/// recorder records nothing. Written out once, when the run ends.
class Tracer {
public:
  explicit Tracer(bool On) : On(On) {}

  int begin(const char *Name, int64_t Request) {
    if (!On)
      return -1;
    Spans.push_back({Name, wallNow(), 0, Cur, Request});
    Cur = static_cast<int>(Spans.size()) - 1;
    return Cur;
  }
  void end(int Id) {
    if (Id < 0)
      return;
    Spans[Id].End = wallNow();
    Cur = Spans[Id].Parent;
  }
  /// Records an already-finished child of the current span (used for the
  /// intervals PoolObserver callbacks delimit).
  void add(const char *Name, double Start, double End, int64_t Request) {
    if (On)
      Spans.push_back({Name, Start, End, Cur, Request});
  }

  struct Scope {
    Scope(Tracer &T, const char *Name, int64_t Request)
        : T(T), Id(T.begin(Name, Request)) {}
    ~Scope() { T.end(Id); }
    Tracer &T;
    int Id;
  };

  /// Self time per span name: duration minus the time its direct children
  /// cover.
  std::map<std::string, double> selfTimes() const {
    std::vector<double> Child(Spans.size(), 0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Child[S.Parent] += S.End - S.Start;
    std::map<std::string, double> Out;
    for (size_t I = 0; I < Spans.size(); ++I)
      Out[Spans[I].Name] += Spans[I].End - Spans[I].Start - Child[I];
    return Out;
  }
  /// Total (inclusive) time per span name.
  std::map<std::string, double> totals() const {
    std::map<std::string, double> Out;
    for (const Span &S : Spans)
      Out[S.Name] += S.End - S.Start;
    return Out;
  }
  size_t size() const { return Spans.size(); }

  bool write(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fprintf(F, "[\n");
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                   "\"parent\":%d,\"request\":%lld}%s\n",
                   I, S.Name, S.Start, S.End, S.Parent, (long long)S.Request,
                   I + 1 < Spans.size() ? "," : "");
    }
    std::fprintf(F, "]\n");
    return std::fclose(F) == 0;
  }

private:
  bool On;
  std::vector<Span> Spans;
  int Cur = -1;
};

//===----------------------------------------------------------------------===//
// Per-layer accumulators
//===----------------------------------------------------------------------===//

/// Simulated and host counts summed over the traced operations. Hit rates
/// are carried as hit counts so windows combine exactly.
struct LayerCounts {
  double SourceBytes = 0;
  double InterpInstr = 0, OptInstr = 0, Checks = 0;
  double Dispatches = 0, OptCompiles = 0, Deopts = 0;
  double ElidedCc = 0, ElidedClassic = 0, BbvVersions = 0, BbvGeneric = 0;
  double Cycles = 0, Dl1Accesses = 0, Dl1Hits = 0;
  double CcAccesses = 0, CcHits = 0, CcExceptions = 0;
  double Objects = 0, HeapNumbers = 0, HiddenClasses = 0, SimMemory = 0;
  double Compiles = 0, CompileSeconds = 0; // Throwaway recompiles.
  double Captures = 0, SnapshotBytes = 0;

  void addWindow(const RunStats &S) {
    InterpInstr +=
        double(S.Instrs.PerCategory[unsigned(InstrCategory::RestOfCode)]);
    OptInstr += double(S.Instrs.optimizedTotal());
    Checks += double(S.Instrs.PerCategory[unsigned(InstrCategory::Checks)]);
    Cycles += S.CyclesTotal;
    Dl1Accesses += double(S.Dl1Accesses);
    Dl1Hits += S.Dl1HitRate * double(S.Dl1Accesses);
    CcAccesses += double(S.CcAccesses);
    CcHits += double(S.CcAccesses - std::min(S.CcMisses, S.CcAccesses));
    CcExceptions += double(S.CcExceptions);
  }
  void addRegistry(const MetricsRegistry *M) {
    if (!M)
      return;
    for (const auto &[Name, V] : M->counters()) {
      if (Name == "checks_elided_class_cache")
        ElidedCc += double(V);
      else if (Name == "checks_elided_classic")
        ElidedClassic += double(V);
      else if (Name == "bbv.versions")
        BbvVersions += double(V);
      else if (Name == "bbv.generic_fallbacks")
        BbvGeneric += double(V);
    }
  }
};

/// Times compileOptimized on every currently-optimized function of a
/// throwaway engine (its state is discarded right after).
void throwawayRecompile(Engine &E, LayerCounts &L, Tracer &T, int64_t Req) {
  VMState &VM = E.vm();
  for (uint32_t F = 0; F < VM.Funcs.size(); ++F) {
    if (!VM.Funcs[F].Opt)
      continue;
    Tracer::Scope S(T, "jit.compile", Req);
    double T0 = wallNow();
    OptCode *Code = compileOptimized(VM, F);
    L.CompileSeconds += wallNow() - T0;
    L.Compiles += 1;
    delete Code;
  }
}

/// Times the frontend and bytecode layers on a side copy of \p Source.
void sideParseCompile(const std::string &Source, LayerCounts &L, Tracer &T,
                      int64_t Req) {
  L.SourceBytes += double(Source.size());
  ParseResult P;
  {
    Tracer::Scope S(T, "frontend.parse", Req);
    P = parseProgram(Source);
  }
  StringInterner Names;
  Tracer::Scope S(T, "bytecode.compile", Req);
  CompileResult C = compileProgram(P.Prog, Names);
  (void)C;
}

//===----------------------------------------------------------------------===//
// Result reporting
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name, Unit;
  double Value;
};

struct Outcome {
  uint64_t Attempted = 0, Failed = 0;
  bool Deterministic = true;
  std::vector<Metric> Metrics;
  /// Hash of every simulated value of one repetition (fingerprint file).
  uint64_t SimHash = 0;
};

/// What the untraced phase measured, in the same shape for every workload:
/// an operation is one timed run() call of a sweep leg or one served
/// request; a pass is one round over the legs or one epoch of the request
/// mix. Times are each operation's best across the passes.
struct EndToEnd {
  double SetupS = 0;             // Best set-up of the run.
  std::vector<double> Latencies; // Wall seconds per operation.
  double PassCpu = 0;            // Host CPU seconds per pass.
  double PassInstr = 0;          // Simulated instructions per pass.
  double SimCycles = 0;
  double PeakRssMb = 0;
};

/// Host times are scaled to the probe's reference speed.
void reportEndToEnd(const EndToEnd &E, Outcome &Out) {
  double F = Probe.factor();
  std::printf("perfbench: host-speed probe: %u samples, timings scaled by "
              "%.4f\n",
              Probe.samples(), F);
  double Busy = 0;
  for (double L : E.Latencies)
    Busy += L;
  Out.Metrics = {
      {"setup_s", "s", E.SetupS * F},
      {"run_cpu_s", "s", E.PassCpu * F},
      {"sim_instr_per_s", "1/s", E.PassInstr / (E.PassCpu * F)},
      {"sim_cycles", "cycles", E.SimCycles},
      {"req_per_s", "1/s", double(E.Latencies.size()) / (Busy * F)},
      {"latency_p50_ms", "ms", percentile(E.Latencies, 50) * 1e3 * F},
      {"latency_p99_ms", "ms", percentile(E.Latencies, 99) * 1e3 * F},
      {"peak_rss_mb", "MB", E.PeakRssMb},
      {"ok_rate", "ratio",
       1.0 - double(Out.Failed) / double(std::max<uint64_t>(Out.Attempted, 1))},
  };
}

/// What the traced phase measured beyond LayerCounts.
struct Traced {
  std::map<std::string, double> Self; // Span self time by name.
  double Ops = 1;                      // Per-layer values are per operation.
  double Warmed = 0, Recycles = 0, WarmStarts = 0;
  double CcSpeedupPct = 0, OverheadPct = 0;
  size_t Spans = 0;
};

void reportLayers(const LayerCounts &L, Traced &T, Outcome &Out) {
  double Parse = T.Self["frontend.parse"], Compile = T.Self["bytecode.compile"];
  double Ops = T.Ops;
  Out.Metrics = {
      {"frontend.parse_s", "s", Parse / Ops},
      {"frontend.source_bytes", "bytes", L.SourceBytes / Ops},
      {"bytecode.compile_s", "s", Compile / Ops},
      // Construction plus the pool warm-up script a fresh slot runs.
      {"engine.construct_s", "s",
       (T.Self["engine.construct"] + T.Self["engine.warmup"]) / Ops},
      // Self time of load() minus the parse and compile it contains.
      {"engine.load_s", "s",
       std::max(0.0, T.Self["engine.load"] - Parse - Compile) / Ops},
      {"engine.run_s", "s", T.Self["engine.run"] / Ops},
      // Mean time of one throwaway compileOptimized, times the compiles.
      {"jit.compile_s", "s",
       L.Compiles ? L.CompileSeconds / L.Compiles * L.OptCompiles / Ops : 0},
      // The pool's own time: everything in serve() but the execution stage
      // (admission, slot recycling, bookkeeping).
      {"pool.serve_s", "s", (T.Self["pool.serve"] + T.Self["pool.admit"]) / Ops},
      {"pool.engines_warmed", "count", T.Warmed / Ops},
      {"pool.recycles", "count", T.Recycles / Ops},
      {"pool.warm_starts", "count", T.WarmStarts / Ops},
      {"snapshot.capture_s", "s", T.Self["snapshot.capture"] / Ops},
      {"snapshot.restore_s", "s", T.Self["snapshot.restore"] / Ops},
      {"snapshot.bytes", "bytes", L.Captures ? L.SnapshotBytes / L.Captures : 0},
      {"interp.sim_instr", "count", L.InterpInstr / Ops},
      {"jit.sim_instr_optimized", "count", L.OptInstr / Ops},
      {"jit.executor_dispatches", "count", L.Dispatches / Ops},
      {"jit.opt_compiles", "count", L.OptCompiles / Ops},
      {"jit.deopts", "count", L.Deopts / Ops},
      {"jit.deopts_per_compile", "ratio",
       L.OptCompiles ? L.Deopts / L.OptCompiles : 0},
      {"jit.checks_executed", "count", L.Checks / Ops},
      {"jit.checks_elided_class_cache", "count", L.ElidedCc / Ops},
      {"jit.checks_elided_classic", "count", L.ElidedClassic / Ops},
      {"jit.bbv_versions", "count", L.BbvVersions / Ops},
      {"jit.bbv_generic_fallback_ratio", "ratio",
       L.BbvVersions + L.BbvGeneric
           ? L.BbvGeneric / (L.BbvVersions + L.BbvGeneric)
           : 0},
      {"hw.sim_cycles", "cycles", L.Cycles / Ops},
      {"hw.dl1_accesses", "count", L.Dl1Accesses / Ops},
      {"hw.dl1_hit_rate", "ratio", L.Dl1Accesses ? L.Dl1Hits / L.Dl1Accesses : 0},
      {"hw.cc_accesses", "count", L.CcAccesses / Ops},
      {"hw.cc_hit_rate", "ratio", L.CcAccesses ? L.CcHits / L.CcAccesses : 0},
      {"hw.cc_exceptions", "count", L.CcExceptions / Ops},
      {"hw.cc_speedup_pct", "%", T.CcSpeedupPct},
      {"runtime.objects_allocated", "count", L.Objects / Ops},
      {"runtime.heap_numbers_allocated", "count", L.HeapNumbers / Ops},
      {"runtime.hidden_classes", "count", L.HiddenClasses / Ops},
      {"runtime.sim_memory_bytes", "bytes", L.SimMemory},
      {"trace.overhead_pct", "%", T.OverheadPct},
      {"trace.spans", "count", double(T.Spans)},
  };
}

[[gnu::format(printf, 1, 2)]] void fail(const char *Fmt, ...) {
  std::fprintf(stderr, "perfbench: ");
  va_list Ap;
  va_start(Ap, Fmt);
  std::vfprintf(stderr, Fmt, Ap);
  va_end(Ap);
  std::fprintf(stderr, "\n");
}

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string StateDir;
  std::string Commit = "unknown";
  int ProbeIn = -1, ProbeOut = -1;
};

void writeTrace(const Args &A, const Tracer &T) {
  if (A.StateDir.empty())
    return;
  std::string Path = A.StateDir + "/trace-" + A.Workload + "-" +
                     std::to_string(A.Seed) + ".json";
  if (!T.write(Path))
    fail("cannot write %s", Path.c_str());
}

//===----------------------------------------------------------------------===//
// paper-sweep
//===----------------------------------------------------------------------===//

/// One fig8-protocol leg: top level, then run() ten times, measuring the
/// last. \p Warm covers construction through the ninth run, \p Measured the
/// tenth, exactly like runSteadyState's window. \p E is the warmed engine.
struct Leg {
  bool Ok = false;
  std::string Output;
  RunStats Warm, Measured;
  uint64_t Dispatches = 0;
  double Wall = 0;
  std::unique_ptr<Engine> E;
  std::string LastPrint; // What the measured run() call printed.
};

Leg runLeg(const EngineConfig &Cfg, const std::string &Source, Tracer &T,
           LayerCounts *L, int64_t Req) {
  Leg R;
  double W0 = wallNow();
  Tracer::Scope Root(T, "leg", Req);
  if (L)
    sideParseCompile(Source, *L, T, Req);
  std::unique_ptr<Engine> &E = R.E;
  {
    Tracer::Scope S(T, "engine.construct", Req);
    E = std::make_unique<Engine>(Cfg);
  }
  bool Ok;
  {
    Tracer::Scope S(T, "engine.load", Req);
    Ok = E->load(Source);
  }
  if (Ok) {
    Tracer::Scope S(T, "engine.run", Req);
    Ok = E->runTopLevel();
    size_t Before = 0;
    for (int I = 0; Ok && I < DefaultIterations; ++I) {
      if (I == DefaultIterations - 1) {
        Before = E->output().size();
        R.Warm = E->stats();
        R.Dispatches = E->hostDispatches();
        E->resetStats();
      }
      E->callGlobal("run");
      Ok = !E->halted();
    }
    R.LastPrint = E->output().substr(std::min(Before, E->output().size()));
  }
  R.Ok = Ok;
  R.Measured = E->stats();
  R.Dispatches += E->hostDispatches();
  R.Output = E->output();
  R.Wall = wallNow() - W0;
  if (L && Ok) {
    L->addWindow(R.Warm);
    L->addWindow(R.Measured);
    L->Dispatches += double(R.Dispatches);
    L->OptCompiles += double(R.Measured.OptCompiles);
    L->Deopts += double(R.Measured.Deopts);
    L->Objects += double(R.Measured.Heap.ObjectsAllocated);
    L->HeapNumbers += double(R.Measured.Heap.HeapNumbersAllocated);
    L->HiddenClasses += double(R.Measured.NumHiddenClasses);
    L->SimMemory = std::max(L->SimMemory, double(E->vm().Mem.bytesAllocated()));
    L->addRegistry(E->metrics());
    throwawayRecompile(*E, *L, T, Req);
  }
  return R;
}

uint64_t legHash(const Leg &L) {
  Fnv H;
  H.str(L.Output);
  hashStats(H, L.Warm);
  hashStats(H, L.Measured);
  H.u64(L.Dispatches);
  return H.H;
}

int runPaperSweep(const Args &A, Outcome &Out) {
  std::vector<const Workload *> Ws;
  size_t N = 0;
  const Workload *All = allWorkloads(&N);
  for (size_t I = 0; I < N; ++I)
    if (All[I].Selected)
      Ws.push_back(&All[I]);
  if (Ws.size() != 26) {
    fail("expected 26 Selected workloads, found %zu", Ws.size());
    return 1;
  }
  // The programs are the registry's, and sweeps run them in registry order,
  // so the memory the warmed engines hold does not depend on the seed. The
  // seed fixes the order of the timed calls.
  Rng R(A.Seed);

  EngineConfig NoneCfg = Engine::Options()
                             .withCheckRemoval(CheckRemovalBackend::None)
                             .withMetrics(A.Trace)
                             .build();
  EngineConfig CcCfg = Engine::Options()
                           .withCheckRemoval(CheckRemovalBackend::ClassCache)
                           .withMetrics(A.Trace)
                           .build();
  EngineConfig RefCfg = Engine::Options().withNoOpt().build();

  // Set-up: reference outputs on the baseline tier only (the DiffOracle
  // reference), twice here and again for two workloads after every timed
  // round, so each workload's set-ups spread over the run. setup_s sums
  // each workload's best.
  std::vector<std::string> Ref(Ws.size());
  std::vector<double> RefBest(Ws.size(), HUGE_VAL);
  for (int Rep = 0; Rep < 2; ++Rep) {
    for (size_t I = 0; I < Ws.size(); ++I) {
      double T0 = wallNow();
      BenchRun B = runSteadyState(RefCfg, Ws[I]->Source);
      RefBest[I] = std::min(RefBest[I], wallNow() - T0);
      if (!B.Ok) {
        fail("reference run failed: %s", B.Error.c_str());
        return 1;
      }
      if (Rep > 0 && B.Output != Ref[I]) {
        fail("reference output of %s is not deterministic", Ws[I]->Name);
        Out.Deterministic = false;
      }
      Ref[I] = B.Output;
    }
  }
  size_t NextRef = 0;
  auto rerunReference = [&]() {
    size_t I = NextRef++ % Ws.size();
    double T0 = wallNow();
    BenchRun B = runSteadyState(RefCfg, Ws[I]->Source);
    RefBest[I] = std::min(RefBest[I], wallNow() - T0);
    if (!B.Ok || B.Output != Ref[I]) {
      Out.Deterministic = false;
      fail("reference output of %s is not deterministic", Ws[I]->Name);
    }
  };

  const size_t NumLegs = 2 * Ws.size();
  Tracer Off(false);
  std::vector<uint64_t> FirstHash;
  std::vector<double> CcCycles(Ws.size()), NoneCycles(Ws.size());
  auto check = [&](size_t LegIdx, const Leg &L, size_t W) {
    ++Out.Attempted;
    if (!L.Ok || L.Output != Ref[W]) {
      ++Out.Failed;
      fail("output mismatch or halt on %s", Ws[W]->Name);
    }
    uint64_t H = legHash(L);
    if (FirstHash.size() < NumLegs) {
      FirstHash.push_back(H);
    } else if (FirstHash[LegIdx] != H) {
      Out.Deterministic = false;
      fail("simulated values of %s differ between repetitions", Ws[W]->Name);
    }
  };
  // One sweep: every leg once under the protocol, in registry order. The
  // warmed engines of legs that passed are kept in \p Live when given.
  std::vector<std::string> LastPrint(NumLegs);
  auto sweep = [&](Tracer &T, LayerCounts *L, std::vector<double> &LegWall,
                   std::vector<std::unique_ptr<Engine>> *Live) {
    for (size_t W = 0; W < Ws.size(); ++W) {
      for (int Mech = 0; Mech < 2; ++Mech) {
        size_t LegIdx = 2 * W + Mech;
        Leg G = runLeg(Mech ? CcCfg : NoneCfg, Ws[W]->Source, T, L,
                       static_cast<int64_t>(LegIdx));
        check(LegIdx, G, W);
        LegWall[LegIdx] = G.Wall;
        (Mech ? CcCycles : NoneCycles)[W] = G.Measured.CyclesTotal;
        if (Live && G.Ok) {
          (*Live)[LegIdx] = std::move(G.E);
          LastPrint[LegIdx] = G.LastPrint;
        }
      }
    }
  };

  // Untraced measurement. A warm sweep runs every leg under the protocol
  // and keeps its engine. Timed rounds then call run() once more on every
  // warmed engine, in a fresh seeded order each round, until the budget is
  // spent. The host timings are those steady-state calls: what simulating
  // the paper's measured iteration costs. The shared host slows this code
  // by up to 2x for seconds at a time; a leg's calls are spread over the
  // whole run, so its best call comes from a moment at full speed, which
  // the three or so whole sweeps a run has room for could not ensure.
  std::vector<std::unique_ptr<Engine>> Live(NumLegs);
  std::vector<double> WarmWall(NumLegs);
  double WarmStart = wallNow();
  sweep(Off, nullptr, WarmWall, &Live);
  double WarmSeconds = wallNow() - WarmStart;
  // Each extra call grows the engines' simulated heaps, so the peak RSS is
  // read before the rounds (it would otherwise count rounds) and the
  // rounds are capped.
  rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  EndToEnd E;
  E.PeakRssMb = double(RU.ru_maxrss) / 1024.0;
  constexpr unsigned MaxRounds = 32;
  std::vector<double> BestCpu(NumLegs, HUGE_VAL), BestWall(NumLegs, HUGE_VAL),
      BestInstr(NumLegs, 0);
  std::vector<uint64_t> RoundHash(2 * NumLegs, 0);
  unsigned Rounds = 0;
  double Budget = A.Trace ? A.Seconds / 2 : A.Seconds;
  double Start = wallNow(), Last = 0;
  while (Rounds < 2 ||
         (Rounds < MaxRounds && wallNow() - Start + Last <= Budget)) {
    double R0 = wallNow();
    for (unsigned I : shuffledRange(static_cast<unsigned>(NumLegs), R)) {
      if (!Live[I])
        continue;
      Engine &En = *Live[I];
      En.resetStats();
      size_t Printed = En.output().size();
      double C0 = cpuNow(), W0 = wallNow();
      En.callGlobal("run");
      double C = cpuNow() - C0, Wv = wallNow() - W0;
      ++Out.Attempted;
      // Every call must print what the protocol's checked measured call did.
      if (En.halted() || En.output().compare(Printed, std::string::npos,
                                             LastPrint[I]) != 0) {
        ++Out.Failed;
        fail("timed run() call halted or printed otherwise on %s",
             Ws[I / 2]->Name);
        Live[I].reset();
        continue;
      }
      RunStats St = En.stats();
      if (Rounds < 2) {
        Fnv H;
        hashStats(H, St);
        RoundHash[Rounds * NumLegs + I] = H.H;
      }
      if (C < BestCpu[I]) {
        BestCpu[I] = C;
        BestInstr[I] = double(St.Instrs.total());
      }
      BestWall[I] = std::min(BestWall[I], Wv);
    }
    rerunReference();
    rerunReference();
    Probe.sample();
    ++Rounds;
    Last = wallNow() - R0;
  }
  Live.clear();
  for (double T : RefBest)
    E.SetupS += T;
  for (size_t I = 0; I < NumLegs; ++I) {
    if (BestCpu[I] == HUGE_VAL)
      continue; // A failed leg; the run reports correct=false.
    E.PassCpu += BestCpu[I];
    E.PassInstr += BestInstr[I];
    E.Latencies.push_back(BestWall[I]);
  }
  double LogSum = 0;
  for (double C : CcCycles)
    LogSum += std::log(C);
  E.SimCycles = std::exp(LogSum / double(CcCycles.size()));
  Fnv Sim;
  for (uint64_t H : FirstHash)
    Sim.u64(H);
  for (uint64_t H : RoundHash)
    Sim.u64(H);
  Out.SimHash = Sim.H;

  if (!A.Trace) {
    reportEndToEnd(E, Out);
    std::printf("perfbench: warm sweep of %zu legs in %.2f s, then %u timed "
                "rounds\n",
                NumLegs, WarmSeconds, Rounds);
    return 0;
  }

  // Traced sweep: the same legs with spans and the metrics registry on.
  Tracer T(true);
  LayerCounts L;
  std::vector<double> TWall(NumLegs);
  sweep(T, &L, TWall, nullptr);
  Traced TR;
  TR.Self = T.selfTimes();
  TR.Spans = T.size();
  double LogSpeed = 0;
  for (size_t W = 0; W < Ws.size(); ++W)
    LogSpeed += std::log(NoneCycles[W] / CcCycles[W]);
  TR.CcSpeedupPct = (std::exp(LogSpeed / double(Ws.size())) - 1) * 100;
  // Overhead on the path the untraced warm sweep times: construct, load,
  // run.
  std::map<std::string, double> Tot = T.totals();
  double WarmSum = 0;
  for (double Wv : WarmWall)
    WarmSum += Wv;
  TR.OverheadPct = ((Tot["engine.construct"] + Tot["engine.load"] +
                     Tot["engine.run"]) /
                        WarmSum -
                    1) *
                   100;
  reportLayers(L, TR, Out);
  writeTrace(A, T);
  return 0;
}

//===----------------------------------------------------------------------===//
// Service workloads
//===----------------------------------------------------------------------===//

/// One ccjsd-style request of shape \p Kind and size \p P: smi kernel,
/// shape polymorphism with a transition break, array growth, recursion,
/// string building, allocation churn. Every print carries the tenant and
/// request tags, so cross-tenant contamination is an output mismatch.
std::string makeRequest(unsigned Kind, unsigned P, unsigned Tenant,
                        uint64_t Req) {
  std::string Tag = "t" + std::to_string(Tenant) + " r" + std::to_string(Req);
  auto Num = [](unsigned N) { return std::to_string(N); };
  switch (Kind) {
  case 0:
    return "function k(n) {\n"
           "  var a = 0; var i;\n"
           "  for (i = 0; i < n; i++) { a = (a + i * 7) % 100003; }\n"
           "  return a;\n"
           "}\n"
           "var s = 0; var j;\n"
           "for (j = 0; j < 8; j++) { s = s + k(" + Num(P * 3) + " + j); }\n"
           "print(\"" + Tag + " smi=\" + s);\n";
  case 1: {
    std::string Np = Num(24 + P % 12);
    return "function Pt(x, y) { this.x = x; this.y = y; }\n"
           "function sum(ps, n) {\n"
           "  var s = 0; var i;\n"
           "  for (i = 0; i < n; i++) { s = s + ps[i].x * 3 + ps[i].y; }\n"
           "  return s;\n"
           "}\n"
           "var ps = []; var i;\n"
           "for (i = 0; i < " + Np + "; i++) {\n"
           "  ps[i] = new Pt(i, i * 2 + " + Num(Tenant) + ");\n"
           "}\n"
           "var a = 0;\n"
           "for (i = 0; i < " + Num(P) + "; i++) { a = a + sum(ps, " + Np +
           "); }\n"
           "for (i = 0; i < " + Np + "; i++) {\n"
           "  if (i % 3 == 0) { ps[i].tag = i; }\n"
           "}\n"
           "print(\"" + Tag + " poly=\" + (a + sum(ps, " + Np + ")));\n";
  }
  case 2:
    return "function fill(n) {\n"
           "  var a = []; var i;\n"
           "  for (i = 0; i < n; i++) { a[i] = i * 2 + 1; }\n"
           "  return a;\n"
           "}\n"
           "function total(a, n) {\n"
           "  var s = 0; var i;\n"
           "  for (i = 0; i < n; i++) { s = s + a[i] * 0.5; }\n"
           "  return s;\n"
           "}\n"
           "var a = fill(" + Num(P) + ");\n"
           "var s = 0; var i;\n"
           "for (i = 0; i < 30; i++) { s = s + total(a, " + Num(P) + "); }\n"
           "print(\"" + Tag + " arr=\" + s);\n";
  case 3:
    return "function down(n, acc) {\n"
           "  if (n <= 0) { return acc; }\n"
           "  return down(n - 1, acc + n);\n"
           "}\n"
           "var s = 0; var j;\n"
           "for (j = 0; j < 10; j++) { s = s + down(" + Num(20 + P / 4) +
           " + j, 0); }\n"
           "print(\"" + Tag + " rec=\" + s);\n";
  case 4:
    return "function describe(k) {\n"
           "  var s = \"\"; var i;\n"
           "  for (i = 0; i < k; i++) { s = s + \"x\" + i; }\n"
           "  return s;\n"
           "}\n"
           "var n = 0; var j;\n"
           "for (j = 0; j < 10; j++) { n = n + describe(" + Num(4 + P / 10) +
           ").length; }\n"
           "print(\"" + Tag + " str=\" + n);\n";
  default:
    return "function Box(v) { this.v = v; }\n"
           "function churn(n) {\n"
           "  var s = 0; var i;\n"
           "  for (i = 0; i < n; i++) { s = s + new Box(i).v; }\n"
           "  return s;\n"
           "}\n"
           "print(\"" + Tag + " alloc=\" + churn(" + Num(P * 3) + "));\n";
  }
}

struct ServiceSpec {
  unsigned Tenants, Slots, Requests, Block;
  CheckRemovalBackend Backend;
};

struct Request {
  unsigned Tenant;
  ServiceRequest R;
  std::string Reference;
};

/// The request mix has a fixed composition and a seeded order: every kind
/// appears equally often with the same multiset of sizes, and every tenant
/// gets the same number of requests (in blocks of Sp.Block). The seed
/// decides which tenant gets which request, and when.
std::vector<Request> makeRequests(const ServiceSpec &Sp, uint64_t Seed) {
  constexpr unsigned NumKinds = 6, NumSizes = 10;
  Rng R(Seed);
  // Tenant rounds: each round serves every tenant one block, in a fresh
  // order that never repeats the previous block's tenant.
  std::vector<unsigned> BlockTenant;
  while (BlockTenant.size() * Sp.Block < Sp.Requests) {
    std::vector<unsigned> Round = shuffledRange(Sp.Tenants, R);
    if (!BlockTenant.empty() && Round[0] == BlockTenant.back())
      std::swap(Round[0], Round[1 + R.below(Sp.Tenants - 1)]);
    BlockTenant.insert(BlockTenant.end(), Round.begin(), Round.end());
  }
  std::vector<std::vector<unsigned>> Sizes(NumKinds);
  for (std::vector<unsigned> &S : Sizes)
    for (unsigned I : shuffledRange(NumSizes, R))
      S.push_back(40 + 6 * I);
  std::vector<unsigned> Used(NumKinds, 0), Kinds;
  std::vector<Request> Out(Sp.Requests);
  for (unsigned I = 0; I < Sp.Requests; ++I) {
    if (I % NumKinds == 0)
      Kinds = shuffledRange(NumKinds, R);
    unsigned K = Kinds[I % NumKinds];
    unsigned P = Sizes[K][Used[K]++ % NumSizes];
    unsigned T = BlockTenant[I / Sp.Block];
    Out[I].Tenant = T;
    Out[I].R.Tenant = "tenant" + std::to_string(T);
    Out[I].R.Source = makeRequest(K, P, T, I);
  }
  return Out;
}

/// Pool warm-up script: every request shape once, so pooled engines enter
/// rotation with their shapes and Class List images populated.
std::string warmupSource() {
  std::string S;
  for (unsigned K = 0; K < 6; ++K)
    S += makeRequest(K, 60, 99, K);
  return S;
}

/// Mirrors the pool's slot binding (first free slot, else recycle the
/// least-recently-served slot, parking its tenant's snapshot) on
/// standalone engines driven directly through the public entry points, so
/// the traced run can time load/run/capture/restore one by one.
class ShadowPool {
public:
  ShadowPool(const Engine::Options &Base, unsigned Slots,
             const std::string &Warmup)
      : Base(Base), Warmup(Warmup), Slots(Slots) {}

  Engine &bind(const std::string &Tenant, Tracer &T, LayerCounts &L,
               int64_t Req) {
    for (Slot &S : Slots)
      if (S.Tenant == Tenant) {
        S.LastServed = ++Seq;
        return *S.E;
      }
    Slot *Target = nullptr;
    for (Slot &S : Slots)
      if (S.Tenant.empty()) {
        Target = &S;
        break;
      }
    if (!Target) {
      for (Slot &S : Slots)
        if (!Target || S.LastServed < Target->LastServed)
          Target = &S;
      Tracer::Scope C(T, "snapshot.capture", Req);
      auto Bytes = std::make_shared<const std::vector<uint8_t>>(
          Target->E->snapshotProfile());
      L.Captures += 1;
      L.SnapshotBytes += double(Bytes->size());
      Parked[Target->Tenant] = std::move(Bytes);
    }
    Target->Tenant = Tenant;
    Target->LastServed = ++Seq;
    auto P = Parked.find(Tenant);
    if (P != Parked.end()) {
      Tracer::Scope C(T, "snapshot.restore", Req);
      Engine::Options O = Base;
      O.withProfileSnapshot(P->second);
      Target->E = std::make_unique<Engine>(O);
    } else {
      Tracer::Scope C(T, "engine.construct", Req);
      Target->E = std::make_unique<Engine>(Base);
    }
    Tracer::Scope W(T, "engine.warmup", Req);
    if (!Target->E->load(Warmup) || !Target->E->runTopLevel())
      fail("shadow warm-up failed: %s", Target->E->lastError().c_str());
    return *Target->E;
  }

  template <typename Fn> void forEach(Fn F) {
    for (Slot &S : Slots)
      if (S.E)
        F(*S.E);
  }

private:
  struct Slot {
    std::string Tenant;
    std::unique_ptr<Engine> E;
    uint64_t LastServed = 0;
  };
  Engine::Options Base;
  std::string Warmup;
  std::vector<Slot> Slots;
  std::map<std::string, std::shared_ptr<const std::vector<uint8_t>>> Parked;
  uint64_t Seq = 0;
};

/// Times the admission and execution stages inside serve() from the
/// PoolObserver callbacks (one request per call, one thread).
struct StageTimer final : PoolObserver {
  double Admitted = 0, Completed = 0;
  void onAdmit(size_t, unsigned, bool) override { Admitted = wallNow(); }
  void onComplete(size_t, const ServiceResult &) override {
    Completed = wallNow();
  }
};

uint64_t statsHash(const RunStats &S, const std::string &Output) {
  Fnv H;
  H.str(Output);
  hashStats(H, S);
  return H.H;
}

int runService(const Args &A, const ServiceSpec &Sp, Outcome &Out) {
  Engine::Options Base;
  Base.withCheckRemoval(Sp.Backend);
  Engine::Options TracedBase = Base;
  TracedBase.withMetrics();
  const std::string Warmup = warmupSource();
  auto poolConfig = [&](const Engine::Options &O) {
    PoolConfig PC;
    PC.Engines = Sp.Slots;
    PC.QueueCapacity = 1;
    PC.DegradeThreshold = 1;
    PC.MaxQueuedPerTenant = 1;
    PC.Base = O.build();
    PC.WarmupSource = Warmup;
    return PC;
  };

  // Binds slots 0..Slots-1 to tenants 0..Slots-1 (each slot runs the pool
  // warm-up script as it binds), mirrored on the shadow pool when traced.
  auto prewarm = [&](EnginePool &P, ShadowPool *Shadow) {
    for (unsigned Tn = 0; Tn < Sp.Slots; ++Tn) {
      ServiceRequest Bind{"tenant" + std::to_string(Tn), "print(\"bound\");",
                          "", BudgetConfig()};
      P.serve({Bind}, 1);
      if (Shadow) {
        Tracer Off(false);
        LayerCounts Ignored;
        Engine &SE = Shadow->bind(Bind.Tenant, Off, Ignored, -1);
        SE.beginServiceRequest();
        if (!SE.load(Bind.Source) || !SE.runTopLevel())
          fail("shadow bind failed: %s", SE.lastError().c_str());
      }
    }
  };

  // One set-up: generate the seeded request mix, compute each request's
  // reference output on a baseline-tier-only engine, construct the pool and
  // warm one slot per tenant. It runs three times before the epochs and
  // again before every third epoch, so the set-ups spread over the run;
  // setup_s is their best. Every set-up must reproduce the first one's
  // requests and references.
  std::vector<Request> Reqs;
  std::vector<double> Setups;
  std::unique_ptr<EnginePool> Pool;
  auto setUp = [&]() {
    double T0 = wallNow();
    std::vector<Request> Gen = makeRequests(Sp, A.Seed);
    Engine RefEngine(Engine::Options().withNoOpt());
    for (Request &Q : Gen) {
      if (!RefEngine.load(Q.R.Source) || !RefEngine.runTopLevel()) {
        fail("reference run failed: %s", RefEngine.lastError().c_str());
        return false;
      }
      Q.Reference = RefEngine.output();
    }
    Pool = std::make_unique<EnginePool>(poolConfig(Base));
    prewarm(*Pool, nullptr);
    Setups.push_back(wallNow() - T0);
    Probe.sample();
    for (size_t I = 0; I < Reqs.size(); ++I)
      if (Gen[I].R.Source != Reqs[I].R.Source ||
          Gen[I].Reference != Reqs[I].Reference) {
        Out.Deterministic = false;
        fail("set-up did not reproduce request %zu", I);
        break;
      }
    Reqs = std::move(Gen);
    return true;
  };
  for (int Rep = 0; Rep < 3; ++Rep)
    if (!setUp())
      return 1;

  // One epoch serves the whole seeded mix on a fresh pool; epochs repeat
  // until the time budget is spent, and every epoch must reproduce the
  // first one's simulated values exactly.
  std::vector<uint64_t> FirstHash;
  double EpochCycles = 0, EpochInstr = 0;
  uint64_t EpochOk = 0;
  // Untraced epochs pass no shadow pool (and a disabled tracer).
  auto serveEpoch = [&](EnginePool &P, std::vector<double> &Lat,
                        std::vector<double> &Cpu, Tracer &T, LayerCounts *L,
                        ShadowPool *Shadow, StageTimer *Stages,
                        double Deadline) {
    std::vector<uint64_t> Hashes;
    double Cycles = 0, Instr = 0;
    uint64_t Ok = 0;
    for (size_t I = 0; I < Reqs.size(); ++I) {
      const Request &Q = Reqs[I];
      int64_t Id = static_cast<int64_t>(I);
      std::vector<ServiceRequest> One{Q.R};
      std::vector<ServiceResult> Res;
      double T0, T1, C0, C1;
      {
        Tracer::Scope S(T, "pool.serve", Id);
        C0 = cpuNow();
        T0 = wallNow();
        Res = P.serve(One, 1);
        T1 = wallNow();
        C1 = cpuNow();
        if (Stages) {
          T.add("pool.admit", T0, Stages->Admitted, Id);
          T.add("pool.execute", Stages->Admitted, Stages->Completed, Id);
        }
      }
      Lat.push_back(T1 - T0);
      Cpu.push_back(C1 - C0);
      ++Out.Attempted;
      const ServiceResult &SR = Res[0];
      Engine *E = P.tenantEngine(Q.R.Tenant);
      if (SR.Status != RequestStatus::Ok || SR.Output != Q.Reference || !E) {
        ++Out.Failed;
        fail("request %zu (%s) failed or mismatched: %s", I,
             Q.R.Tenant.c_str(), requestStatusName(SR.Status));
        continue;
      }
      RunStats St = E->stats();
      Hashes.push_back(statsHash(St, SR.Output));
      Cycles += St.CyclesTotal;
      Instr += double(St.Instrs.total());
      ++Ok;
      if (!Shadow)
        continue;
      L->addRegistry(E->metrics());
      for (const auto &[Name, V] : E->metrics()->counters())
        if (Name == "tier_ups")
          L->OptCompiles += double(V);
      // Shadow replay of the same request, one entry point at a time.
      Tracer::Scope Root(T, "shadow.request", Id);
      Engine &SE = Shadow->bind(Q.R.Tenant, T, *L, Id);
      sideParseCompile(Q.R.Source, *L, T, Id);
      SE.beginServiceRequest();
      uint64_t ObjBefore = SE.stats().Heap.ObjectsAllocated;
      uint64_t NumBefore = SE.stats().Heap.HeapNumbersAllocated;
      bool SOk;
      {
        Tracer::Scope S(T, "engine.load", Id);
        SOk = SE.load(Q.R.Source);
      }
      {
        Tracer::Scope S(T, "engine.run", Id);
        SOk = SOk && SE.runTopLevel();
      }
      RunStats SS = SE.stats();
      if (!SOk || statsHash(SS, SE.output()) != Hashes.back()) {
        Out.Deterministic = false;
        fail("shadow replay of request %zu differs from the pooled run", I);
      }
      L->addWindow(SS);
      L->Dispatches += double(SE.hostDispatches());
      L->Deopts += double(SS.Deopts);
      L->Objects += double(SS.Heap.ObjectsAllocated - ObjBefore);
      L->HeapNumbers += double(SS.Heap.HeapNumbersAllocated - NumBefore);
      L->HiddenClasses += double(SS.NumHiddenClasses);
      if (Deadline > 0 && wallNow() > Deadline)
        break;
    }
    if (Shadow) {
      for (size_t I = 0; I < Hashes.size() && I < FirstHash.size(); ++I)
        if (Hashes[I] != FirstHash[I]) {
          Out.Deterministic = false;
          fail("traced request %zu differs from the untraced run", I);
          break;
        }
      Shadow->forEach([&](Engine &SE) {
        L->SimMemory =
            std::max(L->SimMemory, double(SE.vm().Mem.bytesAllocated()));
        throwawayRecompile(SE, *L, T, -1);
      });
      return;
    }
    if (FirstHash.empty()) {
      FirstHash = Hashes;
      EpochCycles = Cycles;
      EpochInstr = Instr;
      EpochOk = Ok;
    } else if (Hashes != FirstHash) {
      Out.Deterministic = false;
      fail("simulated values differ between epochs");
    }
  };

  // Every epoch replays the same requests, so each request's best latency
  // and CPU time across epochs filter host noise the way the sweep's
  // per-leg best does.
  Tracer Off(false);
  EndToEnd E;
  E.Latencies.assign(Reqs.size(), HUGE_VAL);
  std::vector<double> BestCpu(Reqs.size(), HUGE_VAL), EpochLat, EpochCpu;
  size_t Epochs = 0;
  double ServeSum = 0; // Untraced serve() time, the tracing-overhead base.
  double Budget = A.Trace ? A.Seconds / 2 : A.Seconds;
  double Start = wallNow();
  do {
    if (!Pool && Epochs % 3 == 0) {
      if (!setUp())
        return 1;
    } else if (!Pool) {
      Pool = std::make_unique<EnginePool>(poolConfig(Base));
      prewarm(*Pool, nullptr);
    }
    EpochLat.clear();
    EpochCpu.clear();
    serveEpoch(*Pool, EpochLat, EpochCpu, Off, nullptr, nullptr, nullptr, 0);
    if (++Epochs == 1) {
      // Read after the first epoch: later set-ups and epochs fragment the
      // heap by amounts that depend on how many fit in the run.
      rusage RU;
      getrusage(RUSAGE_SELF, &RU);
      E.PeakRssMb = double(RU.ru_maxrss) / 1024.0;
    }
    Probe.sample();
    for (size_t I = 0; I < Reqs.size(); ++I) {
      E.Latencies[I] = std::min(E.Latencies[I], EpochLat[I]);
      BestCpu[I] = std::min(BestCpu[I], EpochCpu[I]);
      ServeSum += EpochLat[I];
    }
    Pool.reset();
  } while (wallNow() - Start < Budget);
  E.SetupS = *std::min_element(Setups.begin(), Setups.end());
  for (double C : BestCpu)
    E.PassCpu += C;
  E.PassInstr = EpochInstr;
  E.SimCycles = EpochOk ? EpochCycles / double(EpochOk) : 0;
  Fnv Sim;
  for (uint64_t H : FirstHash)
    Sim.u64(H);
  Out.SimHash = Sim.H;

  if (!A.Trace) {
    reportEndToEnd(E, Out);
    std::printf("perfbench: %zu epochs of %zu requests, %zu set-ups\n",
                Epochs, Reqs.size(), Setups.size());
    return 0;
  }

  // Traced epoch: metrics registry on, stage spans from PoolObserver, and a
  // shadow replay that splits each request into its layers.
  Tracer T(true);
  LayerCounts L;
  StageTimer Stages;
  std::vector<double> TLat, TCpu;
  EnginePool TP(poolConfig(TracedBase));
  TP.addObserver(&Stages);
  ShadowPool Shadow(TracedBase, Sp.Slots, Warmup);
  prewarm(TP, &Shadow);
  serveEpoch(TP, TLat, TCpu, T, &L, &Shadow, &Stages, wallNow() + Budget);
  TP.removeObserver(&Stages);
  Traced TR;
  TR.Self = T.selfTimes();
  TR.Spans = T.size();
  TR.Ops = double(TLat.size());
  for (const auto &[Name, V] : TP.metrics().counters()) {
    if (Name == "host.pool.engines_warmed")
      TR.Warmed = double(V);
    else if (Name == "host.pool.recycles")
      TR.Recycles = double(V);
    else if (Name == "host.pool.warm_starts")
      TR.WarmStarts = double(V);
  }
  // Overhead: mean traced serve() time against the untraced epochs' mean.
  double TracedServe = 0;
  for (double X : TLat)
    TracedServe += X;
  TR.OverheadPct =
      (TracedServe / TR.Ops /
           (ServeSum / double(Epochs * Reqs.size())) -
       1) *
      100;
  reportLayers(L, TR, Out);
  writeTrace(A, T);
  return 0;
}

//===----------------------------------------------------------------------===//
// Run metadata and the cross-run determinism check
//===----------------------------------------------------------------------===//

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t C = Line.find(':');
      return C == std::string::npos ? Line : Line.substr(C + 2);
    }
  return "unknown";
}

std::string jsonEscape(const std::string &S) {
  std::string O;
  for (char C : S) {
    if (C == '"' || C == '\\')
      O += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      O += C;
  }
  return O;
}

/// Identity of this driver binary: simulated values may only change when
/// the binary does.
std::string binaryIdentity() {
  struct stat St;
  if (stat("/proc/self/exe", &St) != 0)
    return "unknown";
  return std::to_string(St.st_size) + "-" + std::to_string(St.st_mtime);
}

/// Every run with the same workload and seed on the same binary must
/// produce the same simulated values; the first run records them.
bool checkFingerprint(const Args &A, uint64_t Hash) {
  if (A.StateDir.empty())
    return true;
  std::string Path = A.StateDir + "/fingerprint-" + A.Workload + "-" +
                     std::to_string(A.Seed) + ".txt";
  std::string Id = binaryIdentity();
  char Want[64];
  std::snprintf(Want, sizeof(Want), "%016llx", (unsigned long long)Hash);
  {
    std::ifstream In(Path);
    std::string PrevId, PrevHash;
    if (In >> PrevId >> PrevHash && PrevId == Id) {
      if (PrevHash != Want) {
        fail("simulated values differ from an earlier run with this seed "
             "(%s vs %s)",
             PrevHash.c_str(), Want);
        return false;
      }
      return true;
    }
  }
  std::ofstream OutF(Path);
  OutF << Id << " " << Want << "\n";
  return true;
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    char *End = nullptr;
    if (K == "--workload") {
      A.Workload = V;
    } else if (K == "--seed") {
      A.Seed = std::strtoull(V.c_str(), &End, 10);
      if (*End)
        return false;
    } else if (K == "--seconds") {
      A.Seconds = std::strtod(V.c_str(), &End);
      if (*End || A.Seconds <= 0)
        return false;
    } else if (K == "--trace") {
      if (V != "0" && V != "1")
        return false;
      A.Trace = V == "1";
    } else if (K == "--state-dir") {
      A.StateDir = V;
    } else if (K == "--commit") {
      A.Commit = V;
    } else if (K == "--probe-fds") {
      if (std::sscanf(V.c_str(), "%d,%d", &A.ProbeIn, &A.ProbeOut) != 2)
        return false;
    } else {
      return false;
    }
  }
  return Argc % 2 == 1 && !A.Workload.empty();
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload "
                 "paper-sweep|service-steady|service-churn --seed N "
                 "--seconds S --trace 0|1 [--state-dir DIR] [--commit C] "
                 "[--probe-fds IN,OUT]\n");
    return 2;
  }
  std::printf("perfbench: meta {\"workload\":\"%s\",\"seed\":%llu,"
              "\"trace\":%d,\"nproc\":%u,\"cpu\":\"%s\",\"compiler\":\"%s\","
              "\"build_type\":\"%s\",\"assertions\":%s,\"commit\":\"%s\"}\n",
              A.Workload.c_str(), (unsigned long long)A.Seed, A.Trace ? 1 : 0,
              std::thread::hardware_concurrency(),
              jsonEscape(cpuModel()).c_str(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE,
#ifdef NDEBUG
              "false",
#else
              "true",
#endif
              jsonEscape(A.Commit).c_str());
  std::fflush(stdout);

  if (A.ProbeOut >= 0)
    Probe.connect(A.ProbeIn, A.ProbeOut);
  Outcome Out;
  int Rc;
  if (A.Workload == "paper-sweep")
    Rc = runPaperSweep(A, Out);
  else if (A.Workload == "service-steady")
    Rc = runService(A, {4, 4, 1920, 1, CheckRemovalBackend::Both}, Out);
  else if (A.Workload == "service-churn")
    Rc = runService(A, {16, 4, 1920, 20, CheckRemovalBackend::ClassCache},
                    Out);
  else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }
  if (Rc != 0)
    return Rc;
  if (!checkFingerprint(A, Out.SimHash))
    Out.Deterministic = false;
  if (!Out.Deterministic)
    fail("DETERMINISM CHECK FAILED");

  std::string Json = "{\"correct\": ";
  Json += Out.Failed == 0 && Out.Deterministic ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Out.Attempted);
  Json += ", \"failed\": " + std::to_string(Out.Failed);
  Json += ", \"metrics\": {";
  for (size_t I = 0; I < Out.Metrics.size(); ++I) {
    const Metric &M = Out.Metrics[I];
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  I ? ", " : "", M.Name.c_str(), M.Value, M.Unit.c_str());
    Json += Buf;
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return Out.Deterministic ? 0 : 1;
}
