// The serving workloads, `read_hot` and `emotion_storm`: one
// `ServingPipeline` over an ItemKNN + popularity engine with the
// emotion rerank, fed from one load-generator thread with seeded,
// fixed loads (an open-loop phase at a fixed schedule, then a
// closed-loop phase with a fixed number of operations outstanding),
// then the same stream replayed synchronously from one caller. The
// gated metrics come from that replay: on a virtual machine a thread
// that blocks can wake milliseconds late, which swamps the pipeline's
// own figures (printed, not gated).
//
// Every read is checked as it completes (status, shape, order, finite
// scores, catalog ids, no item the user had seen as of the response's
// pinned matrix version). `read_hot` then checks explained scores
// against the benchmark's own recomputation of the emotion blend;
// `emotion_storm` checks the writer-lane version staircase and
// re-serves a sample of reads on a cache-free reference engine that
// replays the same writes, comparing bytes.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "eit/emotion.h"
#include "recsys/engine.h"
#include "recsys/interaction_matrix.h"
#include "recsys/knn_cf.h"
#include "recsys/popularity.h"
#include "recsys/serving_pipeline.h"
#include "sum/catalog.h"
#include "sum/sum_service.h"
#include "workload/scenario.h"
#include "workload/scenario_generator.h"

namespace perfbench {
namespace {

using spa::recsys::BatchPin;
using spa::recsys::EmotionProfile;
using spa::recsys::Interaction;
using spa::recsys::ItemId;
using spa::recsys::LiveUpdateReport;
using spa::recsys::RecommendRequest;
using spa::recsys::RecommendResponse;
using spa::recsys::StreamTicket;
using spa::recsys::StreamTicketPtr;
using spa::recsys::UserId;
using spa::workload::EmotionShift;
using spa::workload::EventKind;
using spa::workload::ScenarioConfig;
using spa::workload::ScenarioEvent;

// ---- deployment settings ----------------------------------------------------
constexpr size_t kInteractionShards = 8;
constexpr size_t kCacheCapacity = size_t{1} << 13;
/// Pipeline workers, and threads of the engine's own pool (used by
/// `ApplyInteractions` for its parallel shard apply): with the
/// generator thread, 4 threads, the cores of the reference host.
constexpr size_t kPipelineWorkers = 2;
constexpr size_t kEngineThreads = 1;
constexpr size_t kMaxBatch = 16;
constexpr size_t kK = 10;
constexpr size_t kSetups = 3;  // set-ups per run; setup_s is their median

// ---- read_hot load ----------------------------------------------------------
constexpr size_t kReadHotEvents = 200'000;  // generated reads, then cycled
constexpr double kReadHotRate = 10'000.0;   // open-loop reads per second
constexpr size_t kReadHotDepth = 256;       // closed-loop reads outstanding
constexpr double kWarmupSeconds = 0.5;
constexpr size_t kExplainChecks = 256;

// ---- emotion_storm load -----------------------------------------------------
/// Virtual seconds per wall second: one simulated day in 10 s of load.
constexpr double kStormCompression = 8'640.0;
constexpr double kStormEventsPerSecond = 140.0;
constexpr size_t kStormDepth = 32;  // closed-loop replay depth
constexpr size_t kStormParitySamples = 64;

/// Traced runs keep one span per this many pipeline reads, and one per
/// this many reads of the synchronous replay (every write is kept).
constexpr uint64_t kReadSpanEvery = 64;
constexpr uint64_t kSyncReadSpanEvery = 8;

constexpr uint64_t kProfileStream = 0xBE7C'0000'0000'0001ULL;
constexpr uint64_t kArrivalStream = 0xBE7C'0000'0000'0002ULL;
constexpr uint64_t kExplainStream = 0xBE7C'0000'0000'0003ULL;

// ---- inputs and the deployment ---------------------------------------------

/// Shifts -> SumUpdates, one update per run of same-user shifts.
std::vector<spa::sum::SumUpdate> Materialize(
    const std::vector<EmotionShift>& shifts,
    const spa::sum::AttributeCatalog& catalog) {
  std::vector<spa::sum::SumUpdate> updates;
  for (const EmotionShift& shift : shifts) {
    if (updates.empty() || updates.back().user() != shift.user) {
      updates.emplace_back(shift.user);
    }
    const auto attr = catalog.EmotionalId(shift.attribute);
    if (shift.op == EmotionShift::Op::kSetSensibility) {
      updates.back().SetSensibility(attr, shift.amount);
    } else {
      updates.back().Reward(attr, shift.amount);
    }
  }
  return updates;
}

/// The generated inputs, built once per set-up.
struct Inputs {
  size_t item_count = 0;
  std::vector<ScenarioEvent> events;
  std::vector<Interaction> bootstrap_log;
  std::vector<EmotionShift> bootstrap_shifts;
  std::vector<EmotionProfile> profiles;  ///< indexed by item id
};

/// One serving deployment: SUM service, interaction matrix, engine.
/// Not movable: the engine and the service hold pointers into it.
struct Deployment {
  Deployment() : catalog(spa::sum::AttributeCatalog::EmagisterDefault()) {}
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  spa::sum::AttributeCatalog catalog;
  std::unique_ptr<spa::sum::SumService> sums;
  std::unique_ptr<spa::recsys::InteractionMatrix> matrix;
  std::unique_ptr<spa::recsys::RecsysEngine> engine;
};

struct SetupTimes {
  double generate_s = 0.0;
  double sum_bootstrap_s = 0.0;
  double matrix_s = 0.0;
  double fit_s = 0.0;
  double total_s = 0.0;
};

Inputs Generate(const ScenarioConfig& config) {
  Inputs in;
  const spa::workload::ScenarioGenerator generator(config);
  in.item_count = generator.item_count();
  in.events = generator.Generate(/*threads=*/1);
  in.bootstrap_log = generator.BootstrapInteractions();
  in.bootstrap_shifts = generator.BootstrapEmotions();
  spa::Rng rng(config.seed, kProfileStream);
  in.profiles.resize(in.item_count);
  for (EmotionProfile& profile : in.profiles) {
    for (double& p : profile) p = rng.Uniform();
  }
  return in;
}

/// Builds SUM state, matrix and engine from `in`; `cache_capacity` 0
/// gives the cache-free reference.
spa::Status Build(const Inputs& in, size_t cache_capacity, Deployment* d,
                  SetupTimes* times) {
  int64_t t = NowNs();
  d->sums = std::make_unique<spa::sum::SumService>(&d->catalog);
  SPA_RETURN_IF_ERROR(
      d->sums->ApplyAll(Materialize(in.bootstrap_shifts, d->catalog)));
  int64_t next = NowNs();
  times->sum_bootstrap_s = SecondsBetween(t, next);
  t = next;

  d->matrix =
      std::make_unique<spa::recsys::InteractionMatrix>(kInteractionShards);
  for (const Interaction& it : in.bootstrap_log) {
    d->matrix->Add(it.user, it.item, it.weight);
  }
  next = NowNs();
  times->matrix_s = SecondsBetween(t, next);
  t = next;

  spa::recsys::EngineConfig config;
  config.interaction_shards = kInteractionShards;
  config.response_cache_capacity = cache_capacity;
  config.batch_threads = kEngineThreads;
  d->engine = std::make_unique<spa::recsys::RecsysEngine>(config);
  d->engine->AddComponent(std::make_unique<spa::recsys::ItemKnnRecommender>(),
                          0.6);
  d->engine->AddComponent(
      std::make_unique<spa::recsys::PopularityRecommender>(), 0.4);
  for (size_t i = 0; i < in.profiles.size(); ++i) {
    d->engine->SetItemEmotionProfile(static_cast<ItemId>(i), in.profiles[i]);
  }
  d->engine->set_sum_service(d->sums.get());
  SPA_RETURN_IF_ERROR(d->engine->Fit(d->matrix.get()));
  times->fit_s = SecondsBetween(t, NowNs());
  return spa::Status::OK();
}

// ---- the benchmark's own ordered interaction log ---------------------------

/// For every user, the items they interacted with and the matrix
/// version at which each first landed (the log is the bootstrap
/// history followed by the stream's batches in submission order; every
/// interaction bumps the version once).
class SeenLog {
 public:
  SeenLog(const std::vector<Interaction>& bootstrap,
          const std::vector<ScenarioEvent>& events, size_t users) {
    std::vector<std::vector<std::pair<ItemId, uint64_t>>> per_user(users);
    uint64_t version = 0;
    const auto add = [&](const Interaction& it) {
      ++version;
      auto& seen = per_user[static_cast<size_t>(it.user)];
      for (const auto& entry : seen) {
        if (entry.first == it.item) return;
      }
      seen.emplace_back(it.item, version);
    };
    for (const Interaction& it : bootstrap) add(it);
    bootstrap_version_ = version;
    for (const ScenarioEvent& e : events) {
      for (const Interaction& it : e.interactions) add(it);
    }
    offsets_.reserve(users + 1);
    offsets_.push_back(0);
    for (const auto& seen : per_user) {
      entries_.insert(entries_.end(), seen.begin(), seen.end());
      offsets_.push_back(static_cast<uint32_t>(entries_.size()));
    }
  }

  uint64_t bootstrap_version() const { return bootstrap_version_; }

  /// True when `user` had interacted with `item` at matrix `version`.
  bool SeenAt(UserId user, ItemId item, uint64_t version) const {
    const auto u = static_cast<size_t>(user);
    if (u + 1 >= offsets_.size()) return false;
    for (uint32_t i = offsets_[u]; i < offsets_[u + 1]; ++i) {
      if (entries_[i].first == item && entries_[i].second <= version) {
        return true;
      }
    }
    return false;
  }

 private:
  std::vector<uint32_t> offsets_;
  std::vector<std::pair<ItemId, uint64_t>> entries_;
  uint64_t bootstrap_version_ = 0;
};

/// Properties every full-stack response must have. Returns an empty
/// string when they hold, else what broke.
std::string CheckRead(const spa::Status& status, const RecommendResponse& r,
                      UserId user, uint64_t matrix_version,
                      size_t item_count, const SeenLog& seen) {
  if (!status.ok()) return "status " + status.ToString();
  if (r.degraded) return "degraded response";
  if (r.user != user) return "response for another user";
  if (r.items.size() > kK) return "more than k items";
  for (size_t i = 0; i < r.items.size(); ++i) {
    const auto& item = r.items[i];
    if (!std::isfinite(item.score)) return "non-finite score";
    if (item.item < 0 || static_cast<size_t>(item.item) >= item_count) {
      return "item outside the catalog";
    }
    if (i > 0) {
      const auto& prev = r.items[i - 1];
      if (prev.score < item.score ||
          (prev.score == item.score && prev.item >= item.item)) {
        return "not sorted by score desc, id asc";
      }
    }
    for (size_t j = 0; j < i; ++j) {
      if (r.items[j].item == item.item) return "duplicate item";
    }
    if (seen.SeenAt(user, item.item, matrix_version)) {
      return "recommended an item the user had seen (item " +
             std::to_string(item.item) + ", matrix version " +
             std::to_string(matrix_version) + ")";
    }
  }
  return {};
}

// ---- the load generator -----------------------------------------------------

/// What the benchmark keeps of one pipeline op.
struct OpSlot {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  double queue_s = 0.0;
  double serve_s = 0.0;
  BatchPin pin;
  bool ok = false;
  EventKind kind = EventKind::kServe;
  uint32_t batch_size = 0;  ///< interactions or SUM updates submitted
  LiveUpdateReport report;  ///< interaction writes
};

/// State shared between the generator thread and the completion
/// callbacks of one phase.
struct Phase {
  Phase(const char* phase_name, size_t slot_count, size_t items,
        const SeenLog* log)
      : name(phase_name), slots(slot_count), item_count(items), seen(log) {}

  const char* name;
  std::vector<OpSlot> slots;
  size_t item_count;
  const SeenLog* seen;
  /// Responses kept whole for the re-serve check (null = not kept).
  std::vector<std::unique_ptr<RecommendResponse>> kept;
  alignas(64) std::atomic<uint64_t> completed{0};
  alignas(64) std::atomic<uint64_t> outstanding{0};
  alignas(64) std::atomic<uint64_t> failed{0};
  std::mutex failure_mu;
  std::vector<std::string> failures;  ///< first few, guarded by failure_mu

  void Failure(std::string what) {
    failed.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(failure_mu);
    if (failures.size() < 5) failures.push_back(std::move(what));
  }

  /// Completion of one op: record, check reads, release the slot.
  void Complete(const StreamTicket& ticket, size_t slot_index,
                UserId user) {
    const int64_t now = NowNs();
    if (slot_index < slots.size()) {
      OpSlot& slot = slots[slot_index];
      slot.done_ns = now;
      slot.queue_s = ticket.queue_seconds();
      slot.serve_s = ticket.serve_seconds();
      slot.pin = ticket.pinned();
      switch (ticket.kind()) {
        case spa::recsys::StreamOpKind::kRecommend:
          slot.ok = ticket.response().ok();
          if (slot.ok && slot_index < kept.size() && kept[slot_index]) {
            *kept[slot_index] = ticket.response().value();
          }
          break;
        case spa::recsys::StreamOpKind::kInteractions:
          slot.ok = ticket.update_report().ok();
          if (slot.ok) slot.report = ticket.update_report().value();
          break;
        case spa::recsys::StreamOpKind::kSumUpdates:
          slot.ok = ticket.sum_status().ok();
          break;
      }
    }
    if (ticket.state() != spa::recsys::TicketState::kDone) {
      Failure(std::string(name) + ": op shed");
    } else if (ticket.kind() == spa::recsys::StreamOpKind::kRecommend) {
      const auto& result = ticket.response();
      static const RecommendResponse kNone;
      std::string why = CheckRead(result.status(),
                                  result.ok() ? result.value() : kNone, user,
                                  ticket.pinned().matrix_version,
                                  item_count, *seen);
      if (!why.empty()) Failure(std::string(name) + ": read: " + why);
    } else if (ticket.kind() == spa::recsys::StreamOpKind::kInteractions
                   ? !ticket.update_report().ok()
                   : !ticket.sum_status().ok()) {
      Failure(std::string(name) + ": write failed");
    }
    completed.fetch_add(1, std::memory_order_release);
    outstanding.fetch_sub(1, std::memory_order_release);
  }

  /// Spins until every submitted op completed (a sleeping generator
  /// wakes late on a virtual machine).
  void AwaitAll(uint64_t submitted) {
    while (completed.load(std::memory_order_acquire) < submitted) {
      CpuRelax();
    }
  }

  /// Spins while `depth` or more ops are outstanding.
  void AwaitBelow(uint64_t depth) {
    while (outstanding.load(std::memory_order_acquire) >= depth) {
      CpuRelax();
    }
  }
};

/// Submits one event; `slot_index` >= slots.size() keeps no slot.
void Submit(spa::recsys::ServingPipeline* pipeline, Phase* phase,
            const ScenarioEvent& event,
            const std::vector<spa::sum::SumUpdate>& updates,
            size_t slot_index, int64_t due_ns) {
  const int64_t sent = NowNs();
  if (slot_index < phase->slots.size()) {
    OpSlot& slot = phase->slots[slot_index];
    slot.due_ns = due_ns;
    slot.sent_ns = sent;
    slot.kind = event.kind;
  }
  phase->outstanding.fetch_add(1, std::memory_order_relaxed);
  const UserId user = event.user;
  auto done = [phase, slot_index, user](const StreamTicket& ticket) {
    phase->Complete(ticket, slot_index, user);
  };
  spa::Result<StreamTicketPtr> admitted(spa::Status::Internal("unset"));
  switch (event.kind) {
    case EventKind::kServe: {
      RecommendRequest request;
      request.user = event.user;
      request.k = kK;
      admitted = pipeline->Submit(std::move(request), done);
      break;
    }
    case EventKind::kInteraction:
      if (slot_index < phase->slots.size()) {
        phase->slots[slot_index].batch_size =
            static_cast<uint32_t>(event.interactions.size());
      }
      admitted = pipeline->SubmitInteractions(event.interactions, done);
      break;
    case EventKind::kSumUpdate:
      if (slot_index < phase->slots.size()) {
        phase->slots[slot_index].batch_size =
            static_cast<uint32_t>(updates.size());
      }
      admitted = pipeline->SubmitSumUpdates(updates, done);
      break;
  }
  if (!admitted.ok()) {
    // Never admitted: no callback will come.
    phase->Failure(std::string(phase->name) + ": submit refused: " +
                   admitted.status().ToString());
    phase->completed.fetch_add(1, std::memory_order_release);
    phase->outstanding.fetch_sub(1, std::memory_order_release);
  }
}

/// Fills the ledger of a finished phase and its generator health.
void Ledger(Phase* phase, uint64_t attempted, Report* report,
            bool open_loop) {
  PhaseLedger* ledger = report->AddPhase(phase->name);
  ledger->attempted = attempted;
  ledger->failed = phase->failed.load();
  ledger->completed = attempted - ledger->failed;
  for (const std::string& f : phase->failures) report->Fail(f);
  if (open_loop) {
    std::vector<double> late;
    late.reserve(phase->slots.size());
    for (const OpSlot& slot : phase->slots) {
      late.push_back(SecondsBetween(slot.due_ns, slot.sent_ns) * 1e3);
    }
    ledger->late_max_ms = *std::max_element(late.begin(), late.end());
    ledger->late_p99_ms = Percentile(&late, 0.99);
    ledger->behind = ledger->late_p99_ms > kLateLimitMs;
    ledger->late_ops = static_cast<uint64_t>(
        std::count_if(late.begin(), late.end(),
                      [](double ms) { return ms > kLateLimitMs; }));
  }
}

/// Adds the apply / refresh / re-warm split of one interaction apply
/// as consecutive child spans starting at `start`.
void TraceApplySplit(Tracer* tracer, uint64_t parent, uint64_t request,
                     int64_t start, const LiveUpdateReport& r) {
  int64_t t = start;
  for (const auto& [name, seconds] :
       {std::pair<const char*, double>{"engine.apply.matrix", r.apply_seconds},
        {"engine.apply.refresh", r.refresh_seconds},
        {"engine.apply.rewarm", r.rewarm_seconds}}) {
    const int64_t end = t + static_cast<int64_t>(seconds * 1e9);
    tracer->Add(name, parent, request, t, end);
    t = end;
  }
}

/// Spans of one pipeline op (sampled reads, every write): the op from
/// submit to done, its queue wait and serve from the ticket, and for
/// interaction writes the apply / refresh / re-warm split.
void TraceOp(Tracer* tracer, const char* phase, const OpSlot& slot,
             uint64_t request) {
  const bool read = slot.kind == EventKind::kServe;
  const uint64_t op = tracer->Add(
      "pipeline.op", 0, request, slot.sent_ns, slot.done_ns,
      std::string("phase=") + phase + ";kind=" +
          (read ? "read" : slot.kind == EventKind::kInteraction ? "interactions"
                                                                : "sum") +
          ";late_ns=" + std::to_string(slot.sent_ns - slot.due_ns) +
          ";due_ns=" + std::to_string(slot.due_ns));
  const int64_t queued = slot.sent_ns + static_cast<int64_t>(slot.queue_s * 1e9);
  const int64_t served = queued + static_cast<int64_t>(slot.serve_s * 1e9);
  tracer->Add("pipeline.queue", op, request, slot.sent_ns, queued,
              read ? "lane=read" : "lane=write");
  if (read) {
    tracer->Add("pipeline.serve", op, request, queued, served);
    return;
  }
  const uint64_t apply = tracer->Add(
      "pipeline.apply", op, request, queued, served,
      "updates=" + std::to_string(slot.batch_size));
  if (slot.kind == EventKind::kInteraction) {
    TraceApplySplit(tracer, apply, request, queued, slot.report);
  }
}

/// What the synchronous replay measured.
struct SyncResult {
  std::vector<double> read_ms;  ///< per read, from call to return
  uint64_t ops = 0;             ///< reads and writes
  int64_t start_ns = 0;
  int64_t end_ns = 0;  ///< when the last op returned
};

/// Reads a one-caller replay can reach per second of run: the replay
/// reserves room for them up front, so the memory it keeps does not
/// grow in steps with the program's speed (peak RSS is gated).
constexpr double kMaxReadsPerSecond = 1'000'000.0;

/// Replays `events` in order from this thread, one call per event into
/// `RecommendInto`, `ApplyInteractions` or `SumService::ApplyAll` (the
/// single-caller figures the gated metrics come from). Events cycle
/// until `seconds` passed, or run once when `seconds` is 0. Reads are
/// checked like pipeline reads. With tracing on, each call is a span;
/// a read's cache outcome comes from the counters around the call.
SyncResult SyncReplay(
    const std::vector<const ScenarioEvent*>& events,
    const std::vector<const std::vector<spa::sum::SumUpdate>*>& updates,
    double seconds, Deployment* d, const SeenLog& seen, size_t item_count,
    Tracer* tracer, Report* report) {
  SyncResult out;
  PhaseLedger* ledger = report->AddPhase("sync_replay");
  RecommendRequest request;
  request.k = kK;
  RecommendResponse response;
  out.read_ms.reserve(seconds > 0.0 ? static_cast<size_t>(
                                          seconds * kMaxReadsPerSecond)
                                    : events.size());
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
  out.start_ns = start;
  for (size_t i = 0;; ++i) {
    if (seconds > 0.0 ? NowNs() >= stop : i >= events.size()) break;
    const ScenarioEvent& e = *events[i % events.size()];
    const uint64_t request_id = 1'000'000'000ULL + i;
    std::string why;
    int64_t t0 = 0;
    int64_t t1 = 0;
    if (e.kind == EventKind::kServe) {
      request.user = e.user;
      const bool traced = tracer->enabled() && i % kSyncReadSpanEvery == 0;
      const uint64_t hits_before =
          traced ? d->engine->cache_stats().hits : 0;
      t0 = NowNs();
      const spa::Status status = d->engine->RecommendInto(request, &response);
      t1 = NowNs();
      why = CheckRead(status, response, e.user, d->matrix->version(),
                      item_count, seen);
      if (traced) {
        const bool hit = d->engine->cache_stats().hits > hits_before;
        tracer->Add("engine.recommend", 0, request_id, t0, t1,
                    hit ? "hit=1" : "hit=0");
      }
    } else if (e.kind == EventKind::kInteraction) {
      t0 = NowNs();
      const auto result = d->engine->ApplyInteractions(e.interactions);
      t1 = NowNs();
      if (!result.ok()) {
        why = "apply: " + result.status().ToString();
      } else if (tracer->enabled()) {
        const LiveUpdateReport& r = result.value();
        const uint64_t span = tracer->Add(
            "engine.apply", 0, request_id, t0, t1,
            "rows=" + std::to_string(r.rows_refreshed) + ";invalidated=" +
                std::to_string(r.cache_entries_invalidated) + ";rewarmed=" +
                std::to_string(r.entries_rewarmed) +
                ";all=" + (r.invalidated_all ? "1" : "0"));
        TraceApplySplit(tracer, span, request_id, t0, r);
      }
    } else {
      const auto& batch = *updates[i % events.size()];
      const uint64_t v0 = d->sums->version();
      t0 = NowNs();
      const spa::Status status = d->sums->ApplyAll(batch);
      t1 = NowNs();
      if (!status.ok()) why = "publish: " + status.ToString();
      tracer->Add("sum.publish", 0, request_id, t0, t1,
                  "users=" + std::to_string(batch.size()) + ";publishes=" +
                      std::to_string(d->sums->version() - v0));
    }
    ++ledger->attempted;
    ++out.ops;
    out.end_ns = t1;
    if (e.kind == EventKind::kServe) {
      out.read_ms.push_back(SecondsBetween(t0, t1) * 1e3);
    }
    if (!why.empty()) {
      ++ledger->failed;
      report->Fail("sync_replay: " + why);
    }
  }
  ledger->completed = ledger->attempted - ledger->failed;
  return out;
}

/// Latency of every slot from due to done, in ms.
std::vector<double> LatenciesMs(const Phase& phase) {
  std::vector<double> out;
  out.reserve(phase.slots.size());
  for (const OpSlot& slot : phase.slots) {
    out.push_back(SecondsBetween(slot.due_ns, slot.done_ns) * 1e3);
  }
  return out;
}

/// Set-up repeated `kSetups` times; the last deployment is kept.
struct SetupResult {
  Inputs inputs;
  std::unique_ptr<Deployment> deployment;
  std::vector<double> totals;
  SetupTimes last;
};

bool SetUp(const ScenarioConfig& config, Tracer* tracer, Report* report,
           SetupResult* out) {
  for (size_t i = 0; i < kSetups; ++i) {
    // Free the previous set-up first: only one is ever resident.
    out->deployment.reset();
    out->inputs = Inputs{};
    const int64_t t0 = NowNs();
    out->inputs = Generate(config);
    const int64_t t1 = NowNs();
    auto d = std::make_unique<Deployment>();
    SetupTimes times;
    const spa::Status built = Build(out->inputs, kCacheCapacity, d.get(),
                                    &times);
    const int64_t t2 = NowNs();
    if (!built.ok()) {
      report->Fail("set-up failed: " + built.ToString());
      return false;
    }
    times.generate_s = SecondsBetween(t0, t1);
    times.total_s = SecondsBetween(t0, t2);
    out->totals.push_back(times.total_s);
    out->last = times;
    out->deployment = std::move(d);
    const uint64_t root = tracer->Add("setup", 0, i + 1, t0, t2);
    int64_t t = t1;
    tracer->Add("workload.generate", root, i + 1, t0, t1);
    for (const auto& [name, seconds] :
         {std::pair<const char*, double>{"sum.bootstrap",
                                         times.sum_bootstrap_s},
          {"engine.matrix", times.matrix_s},
          {"engine.fit", times.fit_s}}) {
      const int64_t end = t + static_cast<int64_t>(seconds * 1e9);
      tracer->Add(name, root, i + 1, t, end,
                  std::string("users=") + std::to_string(config.users));
      t = end;
    }
  }
  return true;
}

void PrintSetup(const SetupResult& s) {
  std::printf("  setup (last of %zu): generate %.3f s, sum bootstrap %.3f s, "
              "matrix %.3f s, fit %.3f s\n",
              s.totals.size(), s.last.generate_s, s.last.sum_bootstrap_s,
              s.last.matrix_s, s.last.fit_s);
}

spa::recsys::PipelineConfig PipelineSettings() {
  spa::recsys::PipelineConfig config;
  config.workers = kPipelineWorkers;
  config.queue_capacity = 1024;
  config.writer_queue_capacity = 1024;
  config.policy = spa::recsys::BackpressurePolicy::kBlock;
  config.max_batch = kMaxBatch;
  return config;
}

/// Open loop: event `i` is due `due[i]` after the phase starts.
void OpenLoop(spa::recsys::ServingPipeline* pipeline, Phase* phase,
              const std::vector<const ScenarioEvent*>& events,
              const std::vector<const std::vector<spa::sum::SumUpdate>*>&
                  updates,
              const std::vector<int64_t>& due) {
  static const std::vector<spa::sum::SumUpdate> kNoUpdates;
  const int64_t start = NowNs() + 1'000'000;
  for (size_t i = 0; i < due.size(); ++i) {
    const int64_t when = start + due[i];
    const size_t e = i % events.size();
    WaitUntil(when);
    Submit(pipeline, phase, *events[e],
           updates[e] != nullptr ? *updates[e] : kNoUpdates, i, when);
  }
  phase->AwaitAll(due.size());
  pipeline->Flush();
}

/// Closed loop over `reads` (cycled) with `kReadHotDepth` outstanding
/// for `seconds`; keeps one slot per `kReadSpanEvery` reads while the
/// phase has slots. Returns the reads sent; `wall` gets the duration.
uint64_t ClosedReads(spa::recsys::ServingPipeline* pipeline, Phase* phase,
                     const std::vector<const ScenarioEvent*>& reads,
                     double seconds, double* wall) {
  static const std::vector<spa::sum::SumUpdate> kNoUpdates;
  uint64_t sent = 0;
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < stop) {
    phase->AwaitBelow(kReadHotDepth);
    const size_t slot =
        sent % kReadSpanEvery == 0 ? sent / kReadSpanEvery : SIZE_MAX;
    Submit(pipeline, phase, *reads[sent % reads.size()], kNoUpdates, slot,
           NowNs());
    ++sent;
  }
  phase->AwaitAll(sent);
  *wall = SecondsBetween(start, NowNs());
  pipeline->Flush();
  return sent;
}

// ---- read_hot explain check -------------------------------------------------

/// Recomputes each explained item's final score from the benchmark's
/// own state: alignment from the bootstrapped sensibilities and the
/// registered item profiles, the base share from the min-max bounds the
/// returned base scores imply, blended as (1-beta)*norm + beta*align.
std::string CheckExplained(const RecommendResponse& r,
                           const std::array<double, 10>& sens,
                           const std::vector<EmotionProfile>& profiles,
                           double beta, double threshold) {
  if (!r.explained) return "response not explained";
  if (r.items.empty()) return {};
  bool any_sens = false;
  for (double s : sens) any_sens |= s >= threshold;
  for (const auto& item : r.items) {
    double signal = 0.0;
    double weight = 0.0;
    for (auto attr : spa::eit::AllEmotionalAttributes()) {
      const size_t a = static_cast<size_t>(attr);
      if (sens[a] < threshold) continue;
      signal += spa::eit::ValenceSign(attr) * sens[a] *
                profiles[static_cast<size_t>(item.item)][a];
      weight += sens[a];
    }
    const double alignment =
        weight == 0.0 ? 0.0 : std::clamp(signal / weight, -1.0, 1.0);
    const auto& b = item.breakdown;
    if (std::fabs(b.emotional_alignment - alignment) > 1e-12) {
      return "alignment " + Num(b.emotional_alignment) + " != recomputed " +
             Num(alignment);
    }
    if (!r.emotion_applied) {
      if (any_sens) return "emotion stage skipped for a user with context";
      continue;
    }
    const double norm = b.base_share / (1.0 - beta);
    if (norm < -1e-12 || norm > 1.0 + 1e-12) {
      return "normalised base outside [0, 1]";
    }
    const double expect = (1.0 - beta) * norm + beta * alignment;
    if (std::fabs(item.score - expect) > 1e-12) {
      return "score " + Num(item.score) + " != recomputed " + Num(expect);
    }
  }
  // The normalised bases must be one increasing affine map of the base
  // scores: (base - lo) / (hi - lo) with the same lo, hi for all items.
  const auto& first = r.items.front().breakdown;
  for (const auto& item : r.items) {
    const auto& b = item.breakdown;
    if (b.base == first.base) {
      if (std::fabs(b.base_share - first.base_share) > 1e-12) {
        return "equal bases normalised differently";
      }
      continue;
    }
    const double slope =
        (b.base_share - first.base_share) / (b.base - first.base);
    if (!(slope > 0.0)) return "normalisation not increasing in base";
    for (const auto& other : r.items) {
      const double predicted =
          first.base_share + slope * (other.breakdown.base - first.base);
      if (std::fabs(predicted - other.breakdown.base_share) > 1e-9) {
        return "normalised bases not one min-max map";
      }
    }
    break;
  }
  return {};
}

/// The gated end-to-end metrics, from the synchronous replay.
void AddMetrics(const SetupResult& setup, const SyncResult& sync,
                double peak_rss, Report* report) {
  std::vector<double> p50 = sync.read_ms;
  std::vector<double> p99 = sync.read_ms;
  report->AddMetric("setup_s", Median(setup.totals), "s", setup.totals.size());
  report->AddMetric("peak_rss_mb", peak_rss, "MB", 1);
  report->AddMetric("p50_ms", Percentile(&p50, 0.5), "ms", p50.size());
  report->AddMetric("p99_ms", Percentile(&p99, 0.99), "ms", p99.size());
  const double wall = SecondsBetween(sync.start_ns, sync.end_ns);
  report->AddMetric("ops_per_s",
                    wall > 0.0 ? static_cast<double>(sync.ops) / wall : 0.0,
                    "1/s", sync.ops);
}

/// Pipeline figures: printed with their sample counts, not gated.
void PrintPipeline(const Phase& open, double offered, uint64_t closed_ops,
                   double closed_wall, size_t depth) {
  std::vector<double> p50 = LatenciesMs(open);
  std::vector<double> p99 = p50;
  std::printf("  pipeline (reported, not gated): open loop at %.0f ops/s: "
              "p50 %.4f ms p99 %.4f ms n=%zu; closed loop at %zu "
              "outstanding: %.1f ops/s n=%llu\n",
              offered, Percentile(&p50, 0.5), Percentile(&p99, 0.99),
              p50.size(), depth, static_cast<double>(closed_ops) / closed_wall,
              static_cast<unsigned long long>(closed_ops));
}

}  // namespace

// ============================================================================

int RunReadHot(const Options& options) {
  Tracer tracer(options.trace);
  Report report;

  ScenarioConfig config =
      spa::workload::SteadyPowerLawScenario(options.users, options.seed);
  config.interaction_fraction = 0.0;
  config.sum_update_fraction = 0.0;
  config.target_events = kReadHotEvents;
  const double pipeline_s = options.seconds / 4.0;  // open, then closed
  const double sync_s = options.seconds / 2.0;

  SetupResult setup;
  if (!SetUp(config, &tracer, &report, &setup)) {
    report.Print("read_hot");
    return 1;
  }
  PrintSetup(setup);
  Deployment& d = *setup.deployment;
  const Inputs& in = setup.inputs;
  const SeenLog seen(in.bootstrap_log, {}, config.users);
  std::vector<const ScenarioEvent*> reads;
  for (const ScenarioEvent& e : in.events) {
    if (e.kind == EventKind::kServe) reads.push_back(&e);
  }
  const std::vector<const std::vector<spa::sum::SumUpdate>*> no_updates(
      reads.size(), nullptr);

  spa::recsys::ServingPipeline pipeline(d.engine.get(), d.sums.get(),
                                        PipelineSettings());

  // ---- warm-up: fill the response cache before anything is timed ------
  Phase warmup("warmup", 0, in.item_count, &seen);
  double warmup_wall = 0.0;
  Ledger(&warmup,
         ClosedReads(&pipeline, &warmup, reads, kWarmupSeconds, &warmup_wall),
         &report, /*open_loop=*/false);

  // ---- pipeline open loop: Poisson arrivals at a fixed absolute rate --
  std::vector<int64_t> due;
  {
    spa::Rng rng(options.seed, kArrivalStream);
    for (double t = rng.Exponential(kReadHotRate); t < pipeline_s;
         t += rng.Exponential(kReadHotRate)) {
      due.push_back(static_cast<int64_t>(t * 1e9));
    }
  }
  Phase open("pipeline_open", due.size(), in.item_count, &seen);
  OpenLoop(&pipeline, &open, reads, no_updates, due);
  Ledger(&open, due.size(), &report, /*open_loop=*/true);

  // ---- pipeline closed loop: a fixed number of reads outstanding ------
  const size_t closed_slots =
      static_cast<size_t>(pipeline_s * 400'000.0) / kReadSpanEvery + 1;
  Phase closed("pipeline_closed", options.trace ? closed_slots : 0,
               in.item_count, &seen);
  double closed_wall = 0.0;
  const uint64_t closed_ops =
      ClosedReads(&pipeline, &closed, reads, pipeline_s, &closed_wall);
  Ledger(&closed, closed_ops, &report, /*open_loop=*/false);
  const spa::recsys::PipelineStats stats = pipeline.stats();

  // ---- explained reads, recomputed from the benchmark's own state -----
  PhaseLedger* explain = report.AddPhase("explain_check");
  {
    std::unordered_map<UserId, std::array<double, 10>> sens;
    spa::Rng rng(options.seed, kExplainStream);
    std::vector<StreamTicketPtr> tickets;
    std::vector<UserId> users;
    for (size_t i = 0; i < kExplainChecks; ++i) {
      const UserId user =
          reads[static_cast<size_t>(rng.UniformInt(
                    0, static_cast<int64_t>(reads.size()) - 1))]
              ->user;
      RecommendRequest request;
      request.user = user;
      request.k = kK;
      request.explain = true;
      auto ticket = pipeline.Submit(std::move(request));
      ++explain->attempted;
      if (!ticket.ok()) {
        ++explain->failed;
        report.Fail("explain submit refused");
        continue;
      }
      users.push_back(user);
      sens.emplace(user, std::array<double, 10>{});
      tickets.push_back(ticket.value());
    }
    // No SUM writes happen in read_hot: the bootstrap is the state.
    for (const EmotionShift& shift : in.bootstrap_shifts) {
      auto it = sens.find(shift.user);
      if (it != sens.end()) {
        it->second[static_cast<size_t>(shift.attribute)] =
            std::clamp(shift.amount, 0.0, 1.0);
      }
    }
    const auto& rerank = d.engine->config().rerank;
    for (size_t i = 0; i < tickets.size(); ++i) {
      tickets[i]->Wait();
      const auto& result = tickets[i]->response();
      static const RecommendResponse kNone;
      const RecommendResponse& r = result.ok() ? result.value() : kNone;
      std::string why =
          CheckRead(result.status(), r, users[i],
                    tickets[i]->pinned().matrix_version, in.item_count, seen);
      if (why.empty()) {
        why = CheckExplained(r, sens[users[i]], in.profiles, rerank.beta,
                             rerank.sensibility_threshold);
      }
      if (!why.empty()) {
        ++explain->failed;
        report.Fail("explain check, user " + std::to_string(users[i]) +
                    ": " + why);
      }
    }
    explain->completed = explain->attempted - explain->failed;
  }
  pipeline.Shutdown();

  // ---- the gated figures: one caller, reads back to back --------------
  const SyncResult sync = SyncReplay(reads, no_updates, sync_s, &d, seen,
                                     in.item_count, &tracer, &report);
  const double peak_rss = PeakRssMb();

  AddMetrics(setup, sync, peak_rss, &report);
  PrintPipeline(open, kReadHotRate, closed_ops, closed_wall, kReadHotDepth);
  const auto cache = d.engine->cache_stats();
  std::printf("  engine cache: hits %llu misses %llu; pipeline: %llu "
              "responses in %llu micro-batches\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses),
              static_cast<unsigned long long>(stats.responses),
              static_cast<unsigned long long>(stats.batches));

  if (tracer.enabled()) {
    for (size_t i = 0; i < open.slots.size(); i += kReadSpanEvery) {
      TraceOp(&tracer, "pipeline_open", open.slots[i], i + 1);
    }
    for (size_t i = 0; i < closed.slots.size(); ++i) {
      if (closed.slots[i].done_ns == 0) continue;
      TraceOp(&tracer, "pipeline_closed", closed.slots[i],
              500'000'000ULL + i);
    }
    tracer.Meta("workload", "read_hot");
    tracer.Meta("pipeline.responses", std::to_string(stats.responses));
    tracer.Meta("pipeline.batches", std::to_string(stats.batches));
    tracer.Meta("loadgen.late_ops", std::to_string(report.late_ops()));
    if (!tracer.Write(options.spans_path)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   options.spans_path.c_str());
      return 1;
    }
  }
  report.Print("read_hot");
  return 0;
}

int RunEmotionStorm(const Options& options) {
  Tracer tracer(options.trace);
  Report report;

  ScenarioConfig config =
      spa::workload::EmotionShiftStormScenario(options.users, options.seed);
  config.duration = static_cast<spa::TimeMicros>(
      options.seconds * kStormCompression * 1e6);
  config.block = std::min<spa::TimeMicros>(config.block, config.duration);
  config.target_events =
      static_cast<size_t>(kStormEventsPerSecond * options.seconds);

  SetupResult setup;
  if (!SetUp(config, &tracer, &report, &setup)) {
    report.Print("emotion_storm");
    return 1;
  }
  PrintSetup(setup);
  Deployment& d = *setup.deployment;
  const Inputs& in = setup.inputs;
  const std::vector<ScenarioEvent>& events = in.events;
  std::vector<std::vector<spa::sum::SumUpdate>> materialized(events.size());
  std::vector<const ScenarioEvent*> stream;
  std::vector<const std::vector<spa::sum::SumUpdate>*> updates;
  std::vector<int64_t> due;
  size_t writes = 0;
  size_t read_count = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    stream.push_back(&events[i]);
    updates.push_back(nullptr);
    if (events[i].kind == EventKind::kSumUpdate) {
      materialized[i] = Materialize(events[i].shifts, d.catalog);
      updates.back() = &materialized[i];
    }
    writes += events[i].kind != EventKind::kServe ? 1 : 0;
    read_count += events[i].kind == EventKind::kServe ? 1 : 0;
    due.push_back(static_cast<int64_t>(static_cast<double>(events[i].time) *
                                       1e3 / kStormCompression));
  }
  const SeenLog seen(in.bootstrap_log, events, config.users);

  spa::recsys::ServingPipeline pipeline(d.engine.get(), d.sums.get(),
                                        PipelineSettings());

  // ---- pipeline open loop: the virtual timeline compressed by a fixed
  // factor, bursts and all; a sample of reads is kept whole -------------
  Phase open("pipeline_open", events.size(), in.item_count, &seen);
  {
    const size_t stride =
        std::max<size_t>(1, read_count / kStormParitySamples);
    open.kept.resize(events.size());
    size_t r = 0;
    for (size_t i = 0; i < events.size(); ++i) {
      if (events[i].kind == EventKind::kServe && r++ % stride == 0) {
        open.kept[i] = std::make_unique<RecommendResponse>();
      }
    }
  }
  OpenLoop(&pipeline, &open, stream, updates, due);
  Ledger(&open, events.size(), &report, /*open_loop=*/true);

  // ---- pipeline closed loop: replay the same stream, fixed depth ------
  Phase closed("pipeline_closed", events.size(), in.item_count, &seen);
  double closed_wall = 0.0;
  {
    static const std::vector<spa::sum::SumUpdate> kNoUpdates;
    const int64_t start = NowNs();
    for (size_t i = 0; i < events.size(); ++i) {
      closed.AwaitBelow(kStormDepth);
      Submit(&pipeline, &closed, events[i],
             updates[i] != nullptr ? *updates[i] : kNoUpdates, i, NowNs());
    }
    closed.AwaitAll(events.size());
    closed_wall = SecondsBetween(start, NowNs());
    pipeline.Flush();
  }
  Ledger(&closed, events.size(), &report, /*open_loop=*/false);
  const spa::recsys::PipelineStats stats = pipeline.stats();
  pipeline.Shutdown();

  // ---- writer lane: versions rise in submission order -----------------
  {
    uint64_t matrix = seen.bootstrap_version();
    uint64_t sum = 0;
    bool first_sum = true;
    for (const Phase* phase : {&open, &closed}) {
      for (const OpSlot& slot : phase->slots) {
        if (slot.kind == EventKind::kInteraction) {
          matrix += slot.batch_size;
          if (!slot.ok || slot.report.matrix_version != matrix) {
            report.Fail(std::string(phase->name) +
                        ": interaction batch landed at matrix version " +
                        std::to_string(slot.report.matrix_version) +
                        ", expected " + std::to_string(matrix));
          }
        } else if (slot.kind == EventKind::kSumUpdate) {
          if (!slot.ok || (!first_sum && slot.pin.sum_version != sum + 1)) {
            report.Fail(std::string(phase->name) +
                        ": SUM publish landed at version " +
                        std::to_string(slot.pin.sum_version) +
                        ", expected " + std::to_string(sum + 1));
          }
          sum = slot.pin.sum_version;
          first_sum = false;
        }
      }
    }
  }

  // ---- the gated figures: one caller replays the stream ---------------
  const SyncResult sync = SyncReplay(stream, updates, 0.0, &d, seen,
                                     in.item_count, &tracer, &report);
  const double peak_rss = PeakRssMb();

  // ---- a sample of pipeline reads, re-served by a cache-free reference
  // engine that replays the same writes in submission order, each read
  // at its pinned matrix version with its pinned SUM snapshot ----------
  PhaseLedger* parity = report.AddPhase("parity_check");
  {
    Deployment ref;
    SetupTimes ignored;
    const spa::Status built = Build(in, /*cache_capacity=*/0, &ref, &ignored);
    if (!built.ok()) report.Fail("reference set-up: " + built.ToString());
    std::vector<size_t> order;  // kept reads by pinned matrix version
    for (size_t i = 0; i < open.kept.size(); ++i) {
      if (open.kept[i] && open.slots[i].ok) order.push_back(i);
    }
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return open.slots[a].pin.matrix_version <
             open.slots[b].pin.matrix_version;
    });
    std::unordered_map<uint64_t, spa::sum::SumSnapshotPtr> snapshots;
    for (size_t i : order) snapshots[open.slots[i].pin.sum_version] = nullptr;
    const auto keep_snapshot = [&] {
      auto it = snapshots.find(ref.sums->version());
      if (it != snapshots.end()) it->second = ref.sums->snapshot();
    };
    keep_snapshot();
    size_t next = 0;
    RecommendResponse again;
    const auto serve_pinned_at = [&](uint64_t matrix_version) {
      for (; next < order.size() &&
             open.slots[order[next]].pin.matrix_version == matrix_version;
           ++next) {
        const size_t i = order[next];
        const RecommendResponse& streamed = *open.kept[i];
        ++parity->attempted;
        RecommendRequest request;
        request.user = events[i].user;
        request.k = kK;
        request.emotion_override = snapshots[open.slots[i].pin.sum_version];
        std::string why;
        if (request.emotion_override == nullptr) {
          why = "no reference snapshot at the pinned SUM version";
        } else if (!ref.engine->RecommendInto(request, &again).ok()) {
          why = "reference serve failed";
        } else if (again.user != streamed.user ||
                   again.items.size() != streamed.items.size()) {
          why = "different item count";
        } else {
          for (size_t j = 0; j < again.items.size(); ++j) {
            if (again.items[j].item != streamed.items[j].item ||
                again.items[j].score != streamed.items[j].score) {
              why = "different item or score bytes at rank " +
                    std::to_string(j);
              break;
            }
          }
        }
        if (!why.empty()) {
          ++parity->failed;
          report.Fail("re-serve of event " + std::to_string(i) +
                      " at matrix version " + std::to_string(matrix_version) +
                      ": " + why);
        }
      }
    };
    for (size_t i = 0; i < events.size() && built.ok(); ++i) {
      if (events[i].kind == EventKind::kInteraction) {
        serve_pinned_at(ref.matrix->version());
        if (!ref.engine->ApplyInteractions(events[i].interactions).ok()) {
          report.Fail("reference apply failed");
        }
      } else if (events[i].kind == EventKind::kSumUpdate) {
        if (!ref.sums->ApplyAll(materialized[i]).ok()) {
          report.Fail("reference publish failed");
        }
        keep_snapshot();
      }
    }
    serve_pinned_at(ref.matrix->version());
    if (next != order.size()) {
      report.Fail("kept reads pinned past the open-loop writes");
    }
    parity->completed = parity->attempted - parity->failed;
  }

  AddMetrics(setup, sync, peak_rss, &report);
  PrintPipeline(open, kStormEventsPerSecond, events.size(), closed_wall,
                kStormDepth);
  std::printf("  stream: %zu events, %zu writes\n", events.size(), writes);

  if (tracer.enabled()) {
    for (size_t i = 0; i < open.slots.size(); ++i) {
      if (open.slots[i].kind == EventKind::kServe &&
          i % kReadSpanEvery != 0) {
        continue;
      }
      TraceOp(&tracer, "pipeline_open", open.slots[i], i + 1);
    }
    tracer.Meta("workload", "emotion_storm");
    tracer.Meta("pipeline.responses", std::to_string(stats.responses));
    tracer.Meta("pipeline.batches", std::to_string(stats.batches));
    tracer.Meta("loadgen.late_ops", std::to_string(report.late_ops()));
    if (!tracer.Write(options.spans_path)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   options.spans_path.c_str());
      return 1;
    }
  }
  report.Print("emotion_storm");
  return 0;
}

}  // namespace perfbench
