#include "sum/sum_service.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/csv.h"
#include "common/hash.h"
#include "common/string_util.h"

namespace spa::sum {

// ---- SumSnapshot -----------------------------------------------------------

namespace {

/// Hash bits consumed per trie level below the root (16-way nodes).
/// A publish bumps the reference count of every occupied slot of each
/// node it copies, so narrower nodes make publishes cheaper and reads
/// (one more level at 100k users) slightly dearer.
constexpr unsigned kLevelBits = 4;

uint64_t HashOf(UserId user) {
  return SplitMix64(static_cast<uint64_t>(user));
}

uint32_t SlotBit(uint64_t hash, unsigned shift) {
  return uint32_t{1} << ((hash >> shift) & ((1u << kLevelBits) - 1));
}

/// Position of `bit`'s element in an array compressed to `map`'s bits.
size_t Rank(uint32_t map, uint32_t bit) {
  return static_cast<size_t>(std::popcount(map & (bit - 1)));
}

}  // namespace

SumSnapshot::SumSnapshot(const AttributeCatalog* catalog,
                         size_t shard_count)
    : catalog_(catalog), roots_(shard_count) {
  SPA_CHECK(catalog != nullptr);
  SPA_CHECK(shard_count > 0 && std::has_single_bit(shard_count));
  root_bits_ = static_cast<unsigned>(std::countr_zero(shard_count));
}

const SumSnapshot::Entry* SumSnapshot::FindEntry(UserId user) const {
  const uint64_t hash = HashOf(user);
  const Node* node = roots_[hash & (roots_.size() - 1)].get();
  for (unsigned shift = root_bits_; node != nullptr; shift += kLevelBits) {
    const uint32_t bit = SlotBit(hash, shift);
    if ((node->entry_map & bit) != 0) {
      const Entry& entry = node->entries[Rank(node->entry_map, bit)];
      return entry.user == user ? &entry : nullptr;
    }
    if ((node->child_map & bit) == 0) return nullptr;
    node = node->children[Rank(node->child_map, bit)].get();
  }
  return nullptr;
}

SumSnapshot::UserView SumSnapshot::Lookup(UserId user) const {
  const Entry* entry = FindEntry(user);
  if (entry == nullptr) return {};
  return {entry->model.get(), entry->version};
}

spa::Result<const SmartUserModel*> SumSnapshot::Get(UserId user) const {
  const SmartUserModel* model = GetOrNull(user);
  if (model == nullptr) {
    return spa::Status::NotFound(
        spa::StrFormat("no SUM for user %lld",
                       static_cast<long long>(user)));
  }
  return model;
}

std::vector<const SumSnapshot::Entry*> SumSnapshot::EntriesInOrder()
    const {
  std::vector<const Entry*> ordered(size_, nullptr);
  const std::function<void(const Node&)> visit = [&](const Node& node) {
    for (const Entry& entry : node.entries) {
      SPA_CHECK(entry.seq < ordered.size());
      ordered[entry.seq] = &entry;
    }
    for (const NodePtr& child : node.children) visit(*child);
  };
  for (const NodePtr& root : roots_) {
    if (root != nullptr) visit(*root);
  }
  return ordered;
}

std::vector<UserId> SumSnapshot::users() const {
  std::vector<UserId> users;
  users.reserve(size_);
  for (const Entry* entry : EntriesInOrder()) users.push_back(entry->user);
  return users;
}

void SumSnapshot::ForEach(
    const std::function<void(const SmartUserModel&)>& fn) const {
  for (const Entry* entry : EntriesInOrder()) fn(*entry->model);
}

size_t SumSnapshot::depth() const {
  const std::function<size_t(const Node&)> levels =
      [&](const Node& node) -> size_t {
    size_t below = 0;
    for (const NodePtr& child : node.children) {
      below = std::max(below, levels(*child));
    }
    return below + 1;
  };
  size_t deepest = 0;
  for (const NodePtr& root : roots_) {
    if (root != nullptr) deepest = std::max(deepest, levels(*root));
  }
  return deepest;
}

std::string SumSnapshot::ToCsv() const {
  std::ostringstream out;
  spa::CsvWriter writer(&out);
  internal::WriteSumCsvHeader(&writer);
  ForEach([&](const SmartUserModel& model) {
    internal::WriteModelCsvRows(*catalog_, model, &writer);
  });
  return out.str();
}

SumSnapshot::Node* SumSnapshot::Writable(NodePtr* slot) const {
  if (*slot == nullptr) {
    *slot = std::make_shared<Node>();
  } else if ((*slot)->edit != version_) {
    *slot = std::make_shared<Node>(**slot);
  } else {
    return slot->get();
  }
  (*slot)->edit = version_;
  return slot->get();
}

SmartUserModel* SumSnapshot::MutableModel(UserId user) {
  const uint64_t hash = HashOf(user);
  NodePtr* slot = &roots_[hash & (roots_.size() - 1)];
  for (unsigned shift = root_bits_;; shift += kLevelBits) {
    // Distinct users have distinct hashes (SplitMix64 is a bijection),
    // so two paths always part before the hash bits run out.
    SPA_CHECK(shift < 64);
    Node* node = Writable(slot);
    const uint32_t bit = SlotBit(hash, shift);
    if ((node->child_map & bit) != 0) {
      slot = &node->children[Rank(node->child_map, bit)];
      continue;
    }
    const size_t at = Rank(node->entry_map, bit);
    if ((node->entry_map & bit) == 0) {
      node->entries.insert(
          node->entries.begin() + static_cast<std::ptrdiff_t>(at),
          Entry{user, version_, size_++,
                std::make_shared<SmartUserModel>(user, catalog_)});
      node->entry_map |= bit;
      return node->entries[at].model.get();
    }
    Entry& entry = node->entries[at];
    if (entry.user == user) {
      if (entry.version != version_) {
        // First touch in this publish: the published model stays
        // with the snapshots that share it.
        entry.model = std::make_shared<SmartUserModel>(*entry.model);
        entry.version = version_;
      }
      return entry.model.get();
    }
    // Another user occupies this slot: push it down one level into a
    // fresh child and keep descending there.
    auto child = std::make_shared<Node>();
    child->edit = version_;
    child->entry_map = SlotBit(HashOf(entry.user), shift + kLevelBits);
    child->entries.push_back(std::move(entry));
    node->entries.erase(node->entries.begin() +
                        static_cast<std::ptrdiff_t>(at));
    node->entry_map &= ~bit;
    const auto child_at = static_cast<std::ptrdiff_t>(
        Rank(node->child_map, bit));
    node->child_map |= bit;
    slot = &*node->children.insert(node->children.begin() + child_at,
                                   std::move(child));
  }
}

// ---- SumService ------------------------------------------------------------

namespace {

size_t ResolveShardCount(size_t requested) {
  return std::bit_ceil(requested == 0 ? size_t{1} : requested);
}

uint64_t NextSnapshotId() {
  static std::atomic<uint64_t> next_id{1};
  return next_id.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

SumService::SumService(const AttributeCatalog* catalog,
                       SumServiceConfig config)
    : catalog_(catalog),
      updater_(config.reinforcement),
      shard_count_(ResolveShardCount(config.user_shards)) {
  SPA_CHECK(catalog != nullptr);
  auto initial = std::shared_ptr<SumSnapshot>(
      new SumSnapshot(catalog, shard_count_));
  initial->id_ = NextSnapshotId();
  head_.store(std::move(initial), std::memory_order_release);
}

SumSnapshotPtr SumService::snapshot() const {
  return head_.load(std::memory_order_acquire);
}

void SumService::Publish(std::shared_ptr<SumSnapshot> next) {
  next->id_ = NextSnapshotId();
  const uint64_t version = next->version_;
  const size_t size = next->size();
  head_.store(std::move(next), std::memory_order_release);
  // Mirrors are updated after the head so a reader that observes the
  // new counters can also pin the new snapshot. Writers serialize
  // under write_mutex_, so both stay monotonic.
  version_.store(version, std::memory_order_release);
  size_.store(size, std::memory_order_release);
}

spa::Status SumService::Validate(const SumUpdate& update) const {
  for (const SumOp& op : update.ops()) {
    if (op.kind == SumOp::Kind::kDecay) continue;
    // std::clamp and the reinforcement rules pass a NaN through, so a
    // non-finite amount would poison the model for good.
    if (op.kind != SumOp::Kind::kValueFromSensibility &&
        !std::isfinite(op.amount)) {
      return spa::Status::InvalidArgument(spa::StrFormat(
          "update for user %lld carries a non-finite amount (%g) for "
          "attribute %d",
          static_cast<long long>(update.user()), op.amount,
          op.attribute));
    }
    if (op.attribute < 0 ||
        static_cast<size_t>(op.attribute) >= catalog_->size()) {
      return spa::Status::InvalidArgument(spa::StrFormat(
          "update for user %lld references attribute %d outside the "
          "catalog (%zu attributes)",
          static_cast<long long>(update.user()), op.attribute,
          catalog_->size()));
    }
  }
  return spa::Status::OK();
}

namespace {

void ApplyOps(const ReinforcementUpdater& updater, const SumUpdate& update,
              SmartUserModel* model) {
  for (const SumOp& op : update.ops()) {
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
        updater.Reward(model, op.attribute, op.amount);
        break;
      case SumOp::Kind::kPunish:
        updater.Punish(model, op.attribute, op.amount);
        break;
      case SumOp::Kind::kValueFromSensibility:
        model->set_value(op.attribute, model->sensibility(op.attribute));
        break;
      case SumOp::Kind::kDecay:
        updater.Decay(model, op.decay_kind);
        break;
    }
  }
}

}  // namespace

spa::Status SumService::Apply(const SumUpdate& update) {
  return ApplyAll({update});
}

spa::Status SumService::ApplyAll(const std::vector<SumUpdate>& updates,
                                 uint64_t* published_version) {
  if (updates.empty()) {
    if (published_version != nullptr) *published_version = version();
    return spa::Status::OK();
  }
  for (const SumUpdate& update : updates) {
    SPA_RETURN_IF_ERROR(Validate(update));
  }

  std::lock_guard<std::mutex> writer(write_mutex_);
  // Path-copying publish: the new snapshot starts as a copy of the
  // head's root pointers; MutableModel copies only the touched users'
  // paths and models, so everything else stays shared.
  auto next = std::shared_ptr<SumSnapshot>(new SumSnapshot(*snapshot()));
  const uint64_t version = ++next->version_;
  for (const SumUpdate& update : updates) {
    ApplyOps(updater_, update, next->MutableModel(update.user()));
  }
  Publish(std::move(next));
  if (published_version != nullptr) *published_version = version;
  return spa::Status::OK();
}

spa::Status SumService::DecayAll(AttributeKind kind) {
  const SumSnapshotPtr current = snapshot();
  if (current->size() == 0) return spa::Status::OK();
  std::vector<SumUpdate> updates;
  updates.reserve(current->size());
  for (UserId user : current->users()) {
    updates.push_back(SumUpdate(user).Decay(kind));
  }
  return ApplyAll(updates);
}

void SumService::Reset(const SumStore& store) {
  std::lock_guard<std::mutex> writer(write_mutex_);
  auto next = std::shared_ptr<SumSnapshot>(
      new SumSnapshot(catalog_, shard_count_));
  next->version_ = snapshot()->version() + 1;
  store.ForEach([&](const SmartUserModel& model) {
    *next->MutableModel(model.user()) = model;
  });
  Publish(std::move(next));
}

}  // namespace spa::sum
