#ifndef SPA_SUM_SUM_SERVICE_H_
#define SPA_SUM_SUM_SERVICE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "sum/reward_punish.h"
#include "sum/sum_store.h"
#include "sum/sum_update.h"
#include "sum/user_model.h"

/// \file
/// Versioned emotional-context service: the read/write split over the
/// Smart User Models. The paper's SUM is a *living* profile — the
/// Attributes Manager keeps re-weighting sensibilities while the
/// serving engine reads them — so the store can no longer be a bare
/// mutable map shared by raw pointer. `SumService` owns the state
/// behind a mutation API (`Apply` / `ApplyAll`, taking `SumUpdate`s)
/// and publishes immutable `SumSnapshot` handles that readers pin for
/// the duration of a request:
///
///  * every publish bumps a global monotonic version and stamps each
///    touched user with it (per-user versions), which is the
///    invalidation signal the engine's response cache keys on;
///  * a snapshot is a persistent hash trie keyed by
///    `SplitMix64(user)`: a dense root of `SumServiceConfig::user_shards`
///    slots, then popcount-compressed 16-way nodes that hold users
///    inline until two of them share a hash prefix. A publish copies
///    only the root-to-leaf paths of the users it touches (each node
///    at most once per publish, mutated in place after that) plus the
///    touched users' models, so a single-user `Apply` costs
///    O(depth) = O(log users), and every untouched node and model is
///    shared with the previous snapshot by `shared_ptr`;
///  * creation order lives in the entries themselves (each user keeps
///    the index it was created at), so a publish that creates users
///    copies no order vector either;
///  * readers holding a snapshot observe a frozen, consistent view no
///    matter how many updates land concurrently — update-while-serve
///    is safe by construction.

namespace spa::sum {

/// \brief An immutable, cheaply shareable view of every SUM.
///
/// Obtained from `SumService::snapshot()`; hold the `SumSnapshotPtr`
/// for as long as the view must stay stable (typically one request).
class SumSnapshot {
 public:
  /// One user's model and per-user version, as resolved by `Lookup`.
  struct UserView {
    /// nullptr when the user has no model in this snapshot.
    const SmartUserModel* model = nullptr;
    /// Version of the publish that last touched the user (0 = absent).
    uint64_t version = 0;
  };

  /// Global version at publish time (0 = empty initial snapshot).
  uint64_t version() const { return version_; }

  /// Process-unique identity of this published state (never reused,
  /// across services too): equal ids mean equal models and versions,
  /// so a reader that checked a user against one snapshot can skip the
  /// lookup while the head stays the same.
  uint64_t id() const { return id_; }

  /// The user's model and version in one trie walk. Alloc-free — the
  /// serve admission path resolves every request's user here, and
  /// model-less (cold) users are the common case, so this must not pay
  /// `Get`'s formatted NotFound status.
  UserView Lookup(UserId user) const;

  /// Version of the publish that last touched `user` (0 when the user
  /// has no model in this snapshot).
  uint64_t UserVersion(UserId user) const { return Lookup(user).version; }

  /// The user's model; NotFound when absent.
  spa::Result<const SmartUserModel*> Get(UserId user) const;

  /// The user's model, or nullptr when absent (alloc-free).
  const SmartUserModel* GetOrNull(UserId user) const {
    return Lookup(user).model;
  }

  bool Contains(UserId user) const { return GetOrNull(user) != nullptr; }
  size_t size() const { return size_; }

  /// Users in creation order.
  std::vector<UserId> users() const;

  /// Visits every model in creation order.
  void ForEach(
      const std::function<void(const SmartUserModel&)>& fn) const;

  const AttributeCatalog& catalog() const { return *catalog_; }

  /// Fan-out of the trie's root (`SumServiceConfig::user_shards`
  /// rounded up to a power of two).
  size_t shard_count() const { return roots_.size(); }

  /// Levels of trie nodes below the root on the deepest path (0 when
  /// empty). A user lookup or a single-user publish walks at most
  /// this many nodes.
  size_t depth() const;

  /// Serializes the snapshot in the SumStore CSV schema.
  std::string ToCsv() const;

 private:
  friend class SumService;

  struct Entry {
    UserId user = 0;
    /// Publish that last touched the user.
    uint64_t version = 0;
    /// Creation index: the user's position in `users()`.
    uint64_t seq = 0;
    std::shared_ptr<SmartUserModel> model;
  };

  /// One trie node. Its slots are selected by `kLevelBits` hash bits
  /// (sum_service.cc); a set bit in `entry_map` holds a user inline, a
  /// set bit in `child_map` a sub-node, and both arrays are compressed
  /// to their set bits (index = popcount of the lower bits).
  struct Node {
    /// Version of the publish that made this copy. Only that publish
    /// may mutate it; it is immutable once published.
    uint64_t edit = 0;
    uint32_t entry_map = 0;
    uint32_t child_map = 0;
    std::vector<Entry> entries;
    std::vector<std::shared_ptr<Node>> children;
  };
  using NodePtr = std::shared_ptr<Node>;

  SumSnapshot(const AttributeCatalog* catalog, size_t shard_count);

  const Entry* FindEntry(UserId user) const;
  /// Entries by creation index (`size()` of them).
  std::vector<const Entry*> EntriesInOrder() const;

  /// Write path, only on an unpublished snapshot whose `version_` is
  /// the publish in progress: the user's model, made private to this
  /// publish (cloned on its first touch, created when absent), with
  /// every node on the user's path copied at most once.
  SmartUserModel* MutableModel(UserId user);
  /// The node `*slot` points at, made private to the publish in
  /// progress (created when absent, copied when published).
  Node* Writable(NodePtr* slot) const;

  const AttributeCatalog* catalog_;
  std::vector<NodePtr> roots_;
  unsigned root_bits_ = 0;
  uint64_t version_ = 0;
  uint64_t id_ = 0;
  size_t size_ = 0;
};

/// Shared handle to a pinned snapshot.
using SumSnapshotPtr = std::shared_ptr<const SumSnapshot>;

struct SumServiceConfig {
  /// Parameters of the kReward / kPunish / kDecay ops.
  ReinforcementConfig reinforcement;
  /// Root fan-out of each snapshot's user trie; rounded up to a power
  /// of two (minimum 1). Every publish copies the root's pointers, and
  /// a larger root makes the trie below it shallower.
  size_t user_shards = 32;
};

/// \brief Owner of the live SUM state behind the mutation API.
///
/// Thread-safe: any number of threads may call `snapshot()` while
/// writers `Apply` updates; writers are serialized internally.
class SumService {
 public:
  explicit SumService(const AttributeCatalog* catalog,
                      SumServiceConfig config = {});

  /// Pins the current published snapshot (one shared_ptr copy).
  SumSnapshotPtr snapshot() const;

  /// Global monotonic version (bumped once per publish). Reads an
  /// atomic counter maintained alongside the head — no snapshot pin.
  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }
  /// Per-user version (0 = user absent).
  uint64_t UserVersion(UserId user) const {
    return snapshot()->UserVersion(user);
  }
  /// User count of the published snapshot (atomic; no snapshot pin).
  size_t size() const { return size_.load(std::memory_order_acquire); }
  const AttributeCatalog& catalog() const { return *catalog_; }

  /// Applies one update atomically and publishes a new snapshot.
  /// Creates the user's model when absent (even with no ops). Errors:
  /// InvalidArgument (op references an attribute outside the catalog,
  /// or carries a NaN/infinite amount); on error nothing is published.
  spa::Status Apply(const SumUpdate& update);

  /// Applies a batch atomically under a single version bump (one
  /// publish; copies only the touched users' trie paths — the cheap
  /// path for bulk maintenance). All-or-nothing: any invalid update
  /// rejects the whole batch. `published_version` (optional) receives
  /// the version this call published — read it from here, not from
  /// `version()` afterwards: with concurrent writers another publish
  /// may land in between, and callers that pin versions (the streaming
  /// writer lane) need the version of *their* publish. An empty batch
  /// publishes nothing and reports the current head version.
  spa::Status ApplyAll(const std::vector<SumUpdate>& updates,
                       uint64_t* published_version = nullptr);

  /// One decay round over every user's attributes of `kind` (periodic
  /// forgetting), as a single batched publish.
  spa::Status DecayAll(AttributeKind kind);

  /// Replaces the whole state from a deserialized store (one publish;
  /// every user stamped with the new version).
  void Reset(const SumStore& store);

  /// Serializes the current snapshot as CSV (SumStore schema).
  std::string ToCsv() const { return snapshot()->ToCsv(); }

  const ReinforcementUpdater& reinforcement() const { return updater_; }

 private:
  spa::Status Validate(const SumUpdate& update) const;
  void Publish(std::shared_ptr<SumSnapshot> next);

  const AttributeCatalog* catalog_;
  ReinforcementUpdater updater_;
  size_t shard_count_;

  /// Serializes writers (Apply/ApplyAll/Reset).
  std::mutex write_mutex_;
  /// Lock-free head: pinning a snapshot is one atomic shared_ptr load.
  std::atomic<SumSnapshotPtr> head_;
  /// Mirrors of the head's version/size so hot-path reads (cache keys,
  /// router pins, empty-batch ApplyAll) skip the snapshot pin.
  std::atomic<uint64_t> version_{0};
  std::atomic<size_t> size_{0};
};

}  // namespace spa::sum

#endif  // SPA_SUM_SUM_SERVICE_H_
