// Randomized differential tests of the persistent user trie behind
// SumSnapshot. A naive reference (std::map of models + a creation-order
// std::vector + per-user versions) replays the same Apply / ApplyAll /
// new-user / DecayAll / Reset sequence as the service; at 5k-20k users
// the trie is at least three levels deep and users share hash prefixes,
// so the path-copying, in-place-after-first-copy and slot-splitting
// branches all run. Two properties are checked:
//
//  * the head matches the reference: global version, per-user
//    versions, creation order and byte-identical CSV;
//  * every snapshot pinned earlier stays byte-identical after any
//    number of later publishes (path copying never mutates a node or a
//    model a published snapshot can reach).
//
// A concurrent case pins snapshots from reader threads while a writer
// publishes (run under TSAN in CI).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/csv.h"
#include "common/hash.h"
#include "gtest/gtest.h"
#include "sum/reward_punish.h"
#include "sum/sum_service.h"
#include "sum/sum_store.h"
#include "sum/sum_update.h"

namespace spa::sum {
namespace {

/// The naive model of the service: one ordered map, one order vector.
class ReferenceSums {
 public:
  ReferenceSums(const AttributeCatalog* catalog, ReinforcementConfig config)
      : catalog_(catalog), updater_(config) {}

  void ApplyAll(const std::vector<SumUpdate>& updates) {
    ++version_;
    for (const SumUpdate& update : updates) {
      auto it = models_.find(update.user());
      if (it == models_.end()) {
        it = models_
                 .emplace(update.user(),
                          SmartUserModel(update.user(), catalog_))
                 .first;
        order_.push_back(update.user());
      }
      versions_[update.user()] = version_;
      for (const SumOp& op : update.ops()) Apply(op, &it->second);
    }
  }

  void Reset(const SumStore& store) {
    ++version_;
    models_.clear();
    versions_.clear();
    order_.clear();
    store.ForEach([&](const SmartUserModel& model) {
      models_.emplace(model.user(), model);
      versions_[model.user()] = version_;
      order_.push_back(model.user());
    });
  }

  uint64_t version() const { return version_; }
  const std::vector<UserId>& order() const { return order_; }
  uint64_t UserVersion(UserId user) const { return versions_.at(user); }

  std::string ToCsv() const {
    std::ostringstream out;
    spa::CsvWriter writer(&out);
    internal::WriteSumCsvHeader(&writer);
    for (const UserId user : order_) {
      internal::WriteModelCsvRows(*catalog_, models_.at(user), &writer);
    }
    return out.str();
  }

 private:
  void Apply(const SumOp& op, SmartUserModel* model) const {
    switch (op.kind) {
      case SumOp::Kind::kSetValue:
        model->set_value(op.attribute, op.amount);
        break;
      case SumOp::Kind::kSetSensibility:
        model->set_sensibility(op.attribute, op.amount);
        break;
      case SumOp::Kind::kAddEvidence:
        model->add_evidence(op.attribute, op.amount);
        break;
      case SumOp::Kind::kReward:
        updater_.Reward(model, op.attribute, op.amount);
        break;
      case SumOp::Kind::kPunish:
        updater_.Punish(model, op.attribute, op.amount);
        break;
      case SumOp::Kind::kValueFromSensibility:
        model->set_value(op.attribute, model->sensibility(op.attribute));
        break;
      case SumOp::Kind::kDecay:
        updater_.Decay(model, op.decay_kind);
        break;
    }
  }

  const AttributeCatalog* catalog_;
  ReinforcementUpdater updater_;
  std::map<UserId, SmartUserModel> models_;
  std::map<UserId, uint64_t> versions_;
  std::vector<UserId> order_;
  uint64_t version_ = 0;
};

/// Everything observable about a snapshot, captured when it is pinned.
struct PinnedView {
  SumSnapshotPtr snapshot;
  uint64_t version = 0;
  std::vector<UserId> users;
  std::vector<uint64_t> user_versions;
  std::string csv;
};

PinnedView Capture(SumSnapshotPtr snapshot) {
  PinnedView view;
  view.version = snapshot->version();
  view.users = snapshot->users();
  for (const UserId user : view.users) {
    view.user_versions.push_back(snapshot->UserVersion(user));
  }
  view.csv = snapshot->ToCsv();
  view.snapshot = std::move(snapshot);
  return view;
}

/// Users whose hashes agree with `anchor`'s on the low `bits` bits:
/// they share the root slot and the first trie levels, so inserting
/// them splits slots several levels down.
std::vector<UserId> HashPrefixSiblings(UserId anchor, unsigned bits,
                                       size_t count) {
  const uint64_t mask = (uint64_t{1} << bits) - 1;
  const uint64_t target = SplitMix64(static_cast<uint64_t>(anchor)) & mask;
  std::vector<UserId> siblings;
  for (uint64_t id = 1; siblings.size() < count; ++id) {
    const UserId user = static_cast<UserId>(id) + anchor;
    if ((SplitMix64(static_cast<uint64_t>(user)) & mask) == target) {
      siblings.push_back(user);
    }
  }
  return siblings;
}

class PersistentSumMapTest : public ::testing::TestWithParam<size_t> {
 protected:
  PersistentSumMapTest()
      : catalog_(AttributeCatalog::EmagisterDefault()),
        service_(&catalog_, MakeConfig(GetParam())),
        reference_(&catalog_, ReinforcementConfig{}) {}

  static SumServiceConfig MakeConfig(size_t shards) {
    SumServiceConfig config;
    config.user_shards = shards;
    return config;
  }

  AttributeId RandomAttribute() {
    return static_cast<AttributeId>(rng_() % catalog_.size());
  }

  /// One update with 0-3 random ops.
  SumUpdate RandomUpdate(UserId user) {
    SumUpdate update(user);
    const size_t ops = rng_() % 4;
    for (size_t i = 0; i < ops; ++i) {
      const AttributeId attr = RandomAttribute();
      const double amount = unit_(rng_);
      switch (rng_() % 7) {
        case 0: update.SetValue(attr, amount); break;
        case 1: update.SetSensibility(attr, amount); break;
        case 2: update.AddEvidence(attr, amount); break;
        case 3: update.Reward(attr, amount); break;
        case 4: update.Punish(attr, amount); break;
        case 5: update.ValueFromSensibility(attr); break;
        default: update.Decay(AttributeKind::kEmotional); break;
      }
    }
    return update;
  }

  UserId ExistingUser() {
    const std::vector<UserId>& order = reference_.order();
    return order[rng_() % order.size()];
  }

  UserId NewUser() {
    // Sequential and random 64-bit ids (negative included) share one
    // trie.
    UserId user = 0;
    do {
      user = rng_() % 2 == 0 ? next_id_++ : static_cast<UserId>(rng_());
    } while (known_.count(user) != 0);
    return user;
  }

  void ApplyBoth(const std::vector<SumUpdate>& updates) {
    for (const SumUpdate& update : updates) known_.insert(update.user());
    uint64_t published = 0;
    ASSERT_TRUE(service_.ApplyAll(updates, &published).ok());
    reference_.ApplyAll(updates);
    ASSERT_EQ(published, reference_.version());
  }

  void ExpectHeadMatchesReference(bool with_csv) {
    const SumSnapshotPtr head = service_.snapshot();
    ASSERT_EQ(head->version(), reference_.version());
    ASSERT_EQ(service_.version(), reference_.version());
    ASSERT_EQ(head->size(), reference_.order().size());
    ASSERT_EQ(head->users(), reference_.order());
    for (const UserId user : reference_.order()) {
      const SumSnapshot::UserView view = head->Lookup(user);
      ASSERT_NE(view.model, nullptr) << "user " << user;
      ASSERT_EQ(view.model->user(), user);
      ASSERT_EQ(view.version, reference_.UserVersion(user))
          << "user " << user;
    }
    if (with_csv) {
      ASSERT_EQ(head->ToCsv(), reference_.ToCsv());
    }
  }

  static void ExpectUnchanged(const PinnedView& pinned) {
    const SumSnapshot& snapshot = *pinned.snapshot;
    EXPECT_EQ(snapshot.version(), pinned.version);
    ASSERT_EQ(snapshot.users(), pinned.users);
    for (size_t i = 0; i < pinned.users.size(); ++i) {
      ASSERT_EQ(snapshot.UserVersion(pinned.users[i]),
                pinned.user_versions[i]);
    }
    EXPECT_EQ(snapshot.ToCsv(), pinned.csv)
        << "snapshot v" << pinned.version << " changed after publish";
  }

  void RunSequence(size_t initial_users, size_t steps) {
    // Bootstrap: one batch of new users, plus hash-prefix siblings that
    // force splits deep below the root.
    std::vector<SumUpdate> bootstrap;
    for (size_t i = 0; i < initial_users; ++i) {
      bootstrap.push_back(RandomUpdate(NewUser()));
    }
    for (const UserId sibling : HashPrefixSiblings(next_id_, 21, 4)) {
      if (known_.count(sibling) == 0) {
        bootstrap.push_back(RandomUpdate(sibling));
        known_.insert(sibling);
      }
    }
    ApplyBoth(bootstrap);
    ASSERT_GE(service_.snapshot()->depth(), 3u);
    ExpectHeadMatchesReference(/*with_csv=*/true);
    if (HasFatalFailure()) return;

    std::vector<PinnedView> pinned;
    pinned.push_back(Capture(service_.snapshot()));
    for (size_t step = 0; step < steps; ++step) {
      const uint32_t dice = static_cast<uint32_t>(rng_() % 100);
      if (dice < 40) {
        ApplyBoth({RandomUpdate(ExistingUser())});
      } else if (dice < 70) {
        // Small batch with repeated users and the odd new user.
        std::vector<UserId> hot;
        for (size_t i = 0; i < 3; ++i) hot.push_back(ExistingUser());
        std::vector<SumUpdate> batch;
        const size_t n = 1 + rng_() % 24;
        for (size_t i = 0; i < n; ++i) {
          const uint32_t pick = static_cast<uint32_t>(rng_() % 10);
          const UserId user = pick < 6   ? hot[rng_() % hot.size()]
                              : pick < 9 ? ExistingUser()
                                         : NewUser();
          batch.push_back(RandomUpdate(user));
        }
        ApplyBoth(batch);
      } else if (dice < 90) {
        std::vector<SumUpdate> batch;
        const size_t n = 1 + rng_() % 64;
        for (size_t i = 0; i < n; ++i) batch.push_back(RandomUpdate(NewUser()));
        ApplyBoth(batch);
      } else if (dice < 95) {
        ASSERT_TRUE(service_.DecayAll(AttributeKind::kEmotional).ok());
        std::vector<SumUpdate> decay;
        for (const UserId user : reference_.order()) {
          decay.push_back(SumUpdate(user).Decay(AttributeKind::kEmotional));
        }
        reference_.ApplyAll(decay);
      } else {
        // Reset from a store holding a random subset of the head.
        SumStore store(&catalog_);
        const SumSnapshotPtr head = service_.snapshot();
        for (const UserId user : head->users()) {
          if (rng_() % 3 == 0) continue;
          *store.GetOrCreate(user) = *head->GetOrNull(user);
        }
        service_.Reset(store);
        reference_.Reset(store);
        known_.clear();
        for (const UserId user : store.users()) known_.insert(user);
      }
      ExpectHeadMatchesReference(/*with_csv=*/step % 40 == 0);
      if (HasFatalFailure()) return;
      if (step % 100 == 50) pinned.push_back(Capture(service_.snapshot()));
    }
    ExpectHeadMatchesReference(/*with_csv=*/true);
    for (const PinnedView& view : pinned) ExpectUnchanged(view);
  }

  AttributeCatalog catalog_;
  SumService service_;
  ReferenceSums reference_;
  std::mt19937_64 rng_{20071015};
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
  UserId next_id_ = 0;
  std::set<UserId> known_;
};

TEST_P(PersistentSumMapTest, RandomSequencesMatchNaiveReference) {
  RunSequence(/*initial_users=*/8000, /*steps=*/400);
}

TEST_P(PersistentSumMapTest, SingleUserPublishesGrowToDeepTrie) {
  // Users created one publish at a time: every insert path-copies.
  for (size_t i = 0; i < 5000; ++i) {
    ASSERT_NO_FATAL_FAILURE(ApplyBoth({RandomUpdate(NewUser())}));
  }
  ASSERT_NO_FATAL_FAILURE(ExpectHeadMatchesReference(/*with_csv=*/true));
  RunSequence(/*initial_users=*/3000, /*steps=*/120);
}

INSTANTIATE_TEST_SUITE_P(RootFanOut, PersistentSumMapTest,
                         ::testing::Values(size_t{1}, size_t{32}));

// Readers pin snapshots and re-read them while a writer publishes: a
// pinned view never changes, and its per-user versions never exceed
// its global version.
TEST(PersistentSumMapConcurrencyTest, ReadersPinWhileWriterPublishes) {
  const AttributeCatalog catalog = AttributeCatalog::EmagisterDefault();
  SumService service(&catalog);
  const AttributeId attr =
      catalog.EmotionalId(eit::EmotionalAttribute::kLively);
  constexpr UserId kUsers = 5000;
  std::vector<SumUpdate> bootstrap;
  for (UserId user = 0; user < kUsers; ++user) {
    bootstrap.push_back(SumUpdate(user).SetSensibility(attr, 0.5));
  }
  ASSERT_TRUE(service.ApplyAll(bootstrap).ok());

  // A cheap fingerprint of what a snapshot says about a few users.
  const auto fingerprint = [&](const SumSnapshot& snapshot) {
    double sum = 0.0;
    for (UserId user = 0; user < kUsers; user += 97) {
      const SumSnapshot::UserView view = snapshot.Lookup(user);
      sum += static_cast<double>(view.version) +
             view.model->sensibility(attr);
    }
    return sum;
  };

  std::atomic<bool> stop{false};
  std::atomic<size_t> checks{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const SumSnapshotPtr snapshot = service.snapshot();
        const double before = fingerprint(*snapshot);
        const std::vector<UserId> users = snapshot->users();
        ASSERT_EQ(users.size(), snapshot->size());
        for (size_t i = 0; i < users.size(); i += 211) {
          ASSERT_LE(snapshot->UserVersion(users[i]), snapshot->version());
        }
        ASSERT_EQ(fingerprint(*snapshot), before);
        checks.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::mt19937_64 rng(99);
  for (int publish = 0; publish < 300; ++publish) {
    std::vector<SumUpdate> batch;
    const size_t n = 1 + rng() % 8;
    for (size_t i = 0; i < n; ++i) {
      // Mostly existing users, sometimes a new one.
      const UserId user = static_cast<UserId>(
          rng() % 10 == 0 ? kUsers + publish : rng() % kUsers);
      batch.push_back(SumUpdate(user).Reward(attr, 0.1));
    }
    ASSERT_TRUE(service.ApplyAll(batch).ok());
  }
  // Let each reader finish a few more checks against the final head.
  const size_t published_checks = checks.load(std::memory_order_relaxed);
  while (checks.load(std::memory_order_relaxed) < published_checks + 4) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(service.version(), 301u);
}

}  // namespace
}  // namespace spa::sum
