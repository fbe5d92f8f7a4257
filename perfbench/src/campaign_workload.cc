// The `campaign` workload: the paper's Fig. 4 loop (discover, advise,
// observe, reinforce) and its Fig. 6 redemption analysis.
//
// One round builds a fresh platform, registers the course catalog,
// bootstraps the candidate pool (the set-up), then runs a pilot blast
// and the ten-campaign schedule (8 push + 2 newsletter) with a retrain
// after each, and pools the ten outcomes with `ComputeRedemption`.
// Rounds repeat until the run's time is spent; every round of one seed
// must produce the same outcomes.

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.h"
#include "campaign/redemption.h"
#include "campaign/runner.h"
#include "common/rng.h"
#include "core/spa.h"

namespace perfbench {
namespace {

using spa::campaign::CampaignOutcome;
using spa::campaign::CampaignSpec;

constexpr size_t kCourses = 200;
constexpr size_t kCoursesPerCampaign = 5;
constexpr double kTargetShare = 0.424;  // the paper's targets / pool
constexpr uint64_t kRandomRankingStream = 0x5EED'0000'0000'0001ULL;

struct Pairs {
  std::vector<double> scores;
  std::vector<int8_t> labels;
};

Pairs Pool(const std::vector<CampaignOutcome>& outcomes) {
  Pairs pairs;
  for (const CampaignOutcome& o : outcomes) {
    pairs.scores.insert(pairs.scores.end(), o.scores.begin(),
                        o.scores.end());
    pairs.labels.insert(pairs.labels.end(), o.labels.begin(),
                        o.labels.end());
  }
  return pairs;
}

/// Share of positives captured at `fraction` of the contacts ranked by
/// score (stable order among ties), read off a `points`-step gains
/// grid with linear interpolation between grid points — the paper's
/// Fig. 6(a) quantity, computed here apart from the program.
double CapturedAt(const Pairs& pairs, double fraction, size_t points) {
  const size_t n = pairs.scores.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return pairs.scores[a] > pairs.scores[b];
  });
  const double positives = static_cast<double>(
      std::count(pairs.labels.begin(), pairs.labels.end(), int8_t{1}));
  std::vector<size_t> captured_by_depth(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    captured_by_depth[i + 1] =
        captured_by_depth[i] + (pairs.labels[order[i]] > 0 ? 1 : 0);
  }
  double prev_x = 0.0;
  double prev_y = 0.0;
  for (size_t p = 1; p <= points; ++p) {
    const size_t depth = n * p / points;
    const double x = static_cast<double>(depth) / static_cast<double>(n);
    const double y =
        static_cast<double>(captured_by_depth[depth]) / positives;
    if (x >= fraction) {
      const double span = x - prev_x;
      if (span <= 0.0) return y;
      return prev_y + (fraction - prev_x) / span * (y - prev_y);
    }
    prev_x = x;
    prev_y = y;
  }
  return prev_y;
}

/// ROC AUC by pair counting (ties count one half).
double PairwiseAuc(const Pairs& pairs) {
  std::vector<double> pos;
  std::vector<double> neg;
  for (size_t i = 0; i < pairs.scores.size(); ++i) {
    (pairs.labels[i] > 0 ? pos : neg).push_back(pairs.scores[i]);
  }
  if (pos.empty() || neg.empty()) return 0.5;
  std::sort(neg.begin(), neg.end());
  double wins = 0.0;
  for (double s : pos) {
    const auto lo = std::lower_bound(neg.begin(), neg.end(), s);
    const auto hi = std::upper_bound(neg.begin(), neg.end(), s);
    wins += static_cast<double>(lo - neg.begin()) +
            0.5 * static_cast<double>(hi - lo);
  }
  return wins / (static_cast<double>(pos.size()) *
                 static_cast<double>(neg.size()));
}

struct Round {
  double setup_s = 0.0;
  double campaign_s = 0.0;
  std::vector<double> step_ms;  ///< RunCampaign + its retrain, per step
  std::vector<size_t> step_contacts;
  std::vector<CampaignOutcome> outcomes;  ///< the ten scheduled campaigns
  std::vector<size_t> scheduled;          ///< their target counts
  spa::campaign::RedemptionReport report;
  uint64_t ops = 0;
  uint64_t failed_ops = 0;
};

Round RunRound(const Options& options, Tracer* tracer, uint64_t round_id,
               Report* report) {
  Round round;
  const int64_t t_setup = NowNs();
  const uint64_t root = tracer->Open("campaign.round", 0, round_id, t_setup);
  spa::core::SpaConfig config;
  config.seed = options.seed;
  auto platform = std::make_unique<spa::core::Spa>(config);

  spa::campaign::PopulationConfig population_config;
  population_config.seed = options.seed;
  const spa::campaign::PopulationModel population(population_config);

  const int64_t t_gen = NowNs();
  const spa::campaign::CourseCatalog courses =
      spa::campaign::CourseCatalog::Generate(
          kCourses, platform->attribute_catalog(), options.seed);
  std::vector<spa::sum::UserId> candidates(options.pool);
  std::iota(candidates.begin(), candidates.end(), spa::sum::UserId{0});
  tracer->Add("workload.generate", root, round_id, t_gen, NowNs());

  const spa::campaign::ResponseModel responses;
  spa::campaign::RunnerConfig runner_config;
  runner_config.seed = options.seed;
  runner_config.bootstrap_events_per_user = 8;
  runner_config.retrain_after_campaign = false;
  spa::campaign::CampaignRunner runner(platform.get(), &population,
                                       &courses, &responses, runner_config);
  runner.RegisterCourses();

  spa::sum::SumService* sums = platform->sum_service();
  const uint64_t v0 = sums->version();
  const int64_t t_boot = NowNs();
  runner.BootstrapUsers(candidates);
  const int64_t t_ready = NowNs();
  tracer->Add("sum.bootstrap", root, round_id, t_boot, t_ready,
              "users=" + std::to_string(candidates.size()) +
                  ";publishes=" + std::to_string(sums->version() - v0));
  round.setup_s = SecondsBetween(t_setup, t_ready);

  // ---- the loop: pilot + ten campaigns, a retrain after each ---------
  const size_t targets = static_cast<size_t>(
      std::llround(static_cast<double>(options.pool) * kTargetShare));
  const std::vector<CampaignSpec> schedule = runner.DefaultSchedule(
      targets, kCoursesPerCampaign, spa::campaign::TargetingMode::kRandom);
  CampaignSpec pilot;
  pilot.id = 0;
  pilot.target_count = targets / 4;
  pilot.featured_courses = schedule.front().featured_courses;
  std::vector<CampaignSpec> steps{pilot};
  steps.insert(steps.end(), schedule.begin(), schedule.end());

  const int64_t t_loop = NowNs();
  const uint64_t loop_span =
      tracer->Open("campaign.loop", root, round_id, t_loop);
  for (size_t s = 0; s < steps.size(); ++s) {
    const CampaignSpec& spec = steps[s];
    const uint64_t v_before = sums->version();
    const size_t history_before = runner.history_size();
    const int64_t t0 = NowNs();
    CampaignOutcome outcome = runner.RunCampaign(spec, candidates);
    const int64_t t1 = NowNs();
    const size_t contacts = runner.history_size() - history_before;
    tracer->Add("campaign.run", loop_span, round_id, t0, t1,
                "contacts=" + std::to_string(contacts) + ";publishes=" +
                    std::to_string(sums->version() - v_before));
    const spa::Status retrained = runner.RetrainFromHistory();
    const int64_t t2 = NowNs();
    tracer->Add("campaign.retrain", loop_span, round_id, t1, t2,
                "examples=" + std::to_string(runner.history_size()));
    round.ops += 2;
    if (!retrained.ok()) {
      ++round.failed_ops;
      report->Fail("RetrainFromHistory after step " + std::to_string(s) +
                   ": " + retrained.ToString());
    }
    round.step_ms.push_back(SecondsBetween(t0, t2) * 1e3);
    round.step_contacts.push_back(contacts);
    if (s > 0) {
      round.scheduled.push_back(spec.target_count);
      round.outcomes.push_back(std::move(outcome));
    }
  }
  const int64_t t_red = NowNs();
  round.report = spa::campaign::ComputeRedemption(round.outcomes);
  const int64_t t_end = NowNs();
  ++round.ops;
  tracer->Add("campaign.redemption", loop_span, round_id, t_red, t_end,
              "contacts=" + std::to_string(round.report.total_targeted));
  tracer->Close(loop_span, t_end);
  tracer->Close(root, t_end);
  round.campaign_s = SecondsBetween(t_loop, t_end);
  return round;
}

/// Checks one round's outcomes against properties the loop must have
/// and against the benchmark's own recomputation of Fig. 6(a).
void CheckRound(const Round& round, uint64_t seed, Report* report) {
  for (size_t c = 0; c < round.outcomes.size(); ++c) {
    const CampaignOutcome& o = round.outcomes[c];
    const std::string where = "campaign " + std::to_string(o.campaign_id);
    if (o.targeted != round.scheduled[c]) {
      report->Fail(where + ": targeted " + std::to_string(o.targeted) +
                   " != scheduled " + std::to_string(round.scheduled[c]));
    }
    if (!(o.transactions <= o.clicked && o.clicked == o.useful_impacts &&
          o.useful_impacts <= o.opened && o.opened <= o.targeted)) {
      report->Fail(where + ": funnel out of order");
    }
    const size_t positives = static_cast<size_t>(
        std::count(o.labels.begin(), o.labels.end(), int8_t{1}));
    if (o.scores.size() != o.targeted || o.labels.size() != o.targeted ||
        positives != o.useful_impacts) {
      report->Fail(where + ": scores/labels disagree with the counts");
    }
    for (double s : o.scores) {
      if (!std::isfinite(s)) report->Fail(where + ": non-finite score");
    }
  }
  const Pairs pairs = Pool(round.outcomes);
  const spa::campaign::RedemptionReport& r = round.report;
  const double captured = CapturedAt(pairs, 0.4, r.curve.size());
  if (std::fabs(captured - r.captured_at_40) > 1e-12) {
    report->Fail("captured_at_40 " + Num(r.captured_at_40) +
                 " != recomputed " + Num(captured));
  }
  const double auc = PairwiseAuc(pairs);
  if (std::fabs(auc - r.auc) > 1e-9) {
    report->Fail("AUC " + Num(r.auc) + " != recomputed " + Num(auc));
  }
  double prev = 0.0;
  for (const auto& point : r.curve) {
    if (point.fraction_captured < prev) {
      report->Fail("capture curve decreases");
    }
    prev = point.fraction_captured;
  }
  if (r.curve.empty() || r.curve.back().fraction_captured != 1.0) {
    report->Fail("capture curve does not end at 1");
  }
  Pairs random = pairs;
  spa::Rng rng(seed, kRandomRankingStream);
  for (double& s : random.scores) s = rng.Uniform();
  const double random_captured = CapturedAt(random, 0.4, r.curve.size());
  if (!(r.captured_at_40 > random_captured)) {
    report->Fail("captured_at_40 " + Num(r.captured_at_40) +
                 " does not beat a random ranking (" +
                 Num(random_captured) + ")");
  }
}

bool SameOutcomes(const Round& a, const Round& b) {
  if (a.outcomes.size() != b.outcomes.size()) return false;
  for (size_t c = 0; c < a.outcomes.size(); ++c) {
    const CampaignOutcome& x = a.outcomes[c];
    const CampaignOutcome& y = b.outcomes[c];
    if (x.targeted != y.targeted || x.opened != y.opened ||
        x.clicked != y.clicked || x.transactions != y.transactions ||
        x.scores != y.scores || x.labels != y.labels) {
      return false;
    }
  }
  return true;
}

}  // namespace

int RunCampaign(const Options& options) {
  Tracer tracer(options.trace);
  Report report;
  std::vector<Round> rounds;
  double peak_rss = 0.0;
  const int64_t start = NowNs();
  // Whole rounds until the run's time is spent, and at least two so
  // the set-up time is a median and determinism is checked.
  while (rounds.size() < 2 ||
         SecondsBetween(start, NowNs()) < options.seconds) {
    rounds.push_back(RunRound(options, &tracer, rounds.size() + 1, &report));
    peak_rss = PeakRssMb();
    // Keep the outcomes of the first round only, once compared.
    if (rounds.size() > 1) {
      if (!SameOutcomes(rounds.front(), rounds.back())) {
        report.Fail("round " + std::to_string(rounds.size()) +
                    " outcomes differ from round 1 at the same seed");
      }
      rounds.back().outcomes.clear();
    }
  }

  PhaseLedger* phase = report.AddPhase("campaign_loop");
  std::vector<double> setup;
  std::vector<double> loop;
  std::vector<double> step_p50;   // per round
  std::vector<double> step_max;   // per round
  std::vector<double> step_rate;  // contacts per second, per step
  size_t steps = 0;
  for (const Round& round : rounds) {
    phase->attempted += round.ops;
    phase->failed += round.failed_ops;
    setup.push_back(round.setup_s);
    loop.push_back(round.campaign_s);
    step_p50.push_back(Median(round.step_ms));
    step_max.push_back(
        *std::max_element(round.step_ms.begin(), round.step_ms.end()));
    for (size_t s = 0; s < round.step_ms.size(); ++s) {
      step_rate.push_back(static_cast<double>(round.step_contacts[s]) /
                          (round.step_ms[s] * 1e-3));
    }
    steps += round.step_ms.size();
  }
  phase->completed = phase->attempted - phase->failed;
  CheckRound(rounds.front(), options.seed, &report);

  // Per round: the median step and the slowest step (11 steps, so the
  // nearest-rank p99 is the maximum); then the median over rounds.
  report.AddMetric("setup_s", Median(setup), "s", setup.size());
  report.AddMetric("peak_rss_mb", peak_rss, "MB", 1);
  report.AddMetric("p50_ms", Median(step_p50), "ms", steps);
  report.AddMetric("p99_ms", Median(step_max), "ms", steps);
  report.AddMetric("ops_per_s", Median(step_rate), "1/s", steps);
  // Reported for reading, not among the gated metrics (the serving
  // workloads have no counterpart).
  std::printf("  campaign_s %.6f s (median of %zu rounds)\n", Median(loop),
              loop.size());
  std::printf("  captured_at_40 %.6f  auc %.6f  redemption_improvement "
              "%.6f  contacts %zu\n",
              rounds.front().report.captured_at_40,
              rounds.front().report.auc,
              rounds.front().report.redemption_improvement,
              rounds.front().report.total_targeted);

  tracer.Meta("workload", "campaign");
  if (!tracer.Write(options.spans_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n",
                 options.spans_path.c_str());
    return 1;
  }
  report.Print("campaign");
  return 0;
}

}  // namespace perfbench
