#include "core/table.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <unordered_set>

namespace bandana {

namespace {
std::vector<double> insertion_points_for(const TablePolicy& policy) {
  const bool uses_position = policy.policy == PrefetchPolicy::kPosition ||
                             policy.policy == PrefetchPolicy::kShadowPosition;
  if (uses_position && policy.insertion_position > 0.0) {
    return {0.0, policy.insertion_position};
  }
  return {0.0};
}

/// Default write-wave chunk when the caller does not pass an admission
/// wave: bounds the compose buffer (16 MB at 4 KB blocks) the same way
/// the growth migration chunks do.
constexpr std::uint64_t kDefaultWriteWaveBlocks = 4096;

/// A wave-sized compose buffer: a leased registered wave buffer when the
/// backend offers one (batched writes then go out as zero-copy
/// WRITE_FIXED), else a plain heap buffer.
struct WaveComposeBuffer {
  WaveComposeBuffer(BlockStorage& storage, std::size_t bytes)
      : lease(storage.lease_wave_buffer(bytes)) {
    if (lease) {
      buf = lease.bytes().first(bytes);
    } else {
      heap.resize(bytes);
      buf = heap;
    }
  }
  BlockStorage::WaveBufferLease lease;
  std::vector<std::byte> heap;
  std::span<std::byte> buf;
};

/// Shard count for the table: one per hardware thread by default, but
/// never more shards than blocks (vectors are striped by block, keeping
/// prefetch admission shard-local) or cache entries (every shard needs at
/// least one slot without inflating the DRAM budget). Fixed at
/// construction: layout swaps keep num_blocks and capacity, so the clamp
/// is invariant.
std::uint32_t shard_count_for(const StoreConfig& cfg,
                              const TablePolicy& policy,
                              const BlockLayout& layout) {
  const std::uint64_t capacity =
      std::max<std::uint64_t>(1, policy.cache_vectors);
  return static_cast<std::uint32_t>(std::max<std::uint64_t>(
      1, std::min({static_cast<std::uint64_t>(cfg.resolved_cache_shards()),
                   static_cast<std::uint64_t>(layout.num_blocks()),
                   capacity})));
}
}  // namespace

std::unique_ptr<BandanaTable::State> BandanaTable::make_state(
    TablePolicy policy, BlockLayout layout,
    std::vector<std::uint32_t> access_counts,
    std::vector<BlockId> block_map) const {
  if (layout.num_vectors() != num_vectors_ ||
      layout.vectors_per_block() != vectors_per_block_) {
    throw std::invalid_argument("table state: layout shape mismatch");
  }
  if (block_map.size() != layout.num_blocks()) {
    throw std::invalid_argument("table state: block map size mismatch");
  }
  if (policy.policy == PrefetchPolicy::kThreshold &&
      access_counts.size() != layout.num_vectors()) {
    throw std::invalid_argument("kThreshold requires per-vector access counts");
  }
  const std::uint64_t capacity =
      std::max<std::uint64_t>(1, policy.cache_vectors);
  std::vector<std::uint32_t> shard_of(layout.num_vectors());
  for (VectorId v = 0; v < layout.num_vectors(); ++v) {
    shard_of[v] = layout.block_of(v) % num_shards_;
  }
  ShardedInsertionLru cache{layout.num_vectors(), capacity,
                            insertion_points_for(policy), std::move(shard_of),
                            num_shards_};

  auto st = std::make_unique<State>(std::move(layout), std::move(block_map),
                                    std::move(access_counts), policy,
                                    std::move(cache));
  st->low_point = st->cache.num_insertion_points() - 1;
  st->slot_of.assign(num_vectors_, 0);
  st->prefetched.assign(num_vectors_, 0);
  st->block_epochs.assign(st->layout.num_blocks(), 0);

  // Slab slots are partitioned by shard: shard s owns the contiguous range
  // starting at the sum of earlier shard capacities. Free lists pop in
  // ascending slot order within each shard (matching the seed's fill order).
  st->free_slots.resize(num_shards_);
  std::uint64_t slot_base = 0;
  for (std::uint32_t s = 0; s < num_shards_; ++s) {
    const std::uint64_t cap = st->cache.shard_capacity(s);
    auto& free_slots = st->free_slots[s];
    free_slots.reserve(cap);
    for (std::uint64_t i = cap; i > 0; --i) {
      free_slots.push_back(static_cast<std::uint32_t>(slot_base + i - 1));
    }
    slot_base += cap;
  }

  if (policy.policy == PrefetchPolicy::kShadow ||
      policy.policy == PrefetchPolicy::kShadowPosition) {
    const auto shadow_cap = std::max<std::uint64_t>(
        1,
        static_cast<std::uint64_t>(static_cast<double>(st->cache.capacity()) *
                                   policy.shadow_multiplier));
    st->shadow = std::make_unique<ShardedInsertionLru>(
        num_vectors_, shadow_cap, std::vector<double>{0.0},
        st->cache.assignment(), num_shards_);
  }
  return st;
}

BandanaTable::BandanaTable(const StoreConfig& store_cfg, TablePolicy policy,
                           BlockLayout layout,
                           std::vector<std::uint32_t> access_counts,
                           BlockId first_block)
    : num_vectors_(layout.num_vectors()),
      num_blocks_(layout.num_blocks()),
      first_block_(first_block),
      vector_bytes_(store_cfg.vector_bytes),
      block_bytes_(store_cfg.block_bytes),
      vectors_per_block_(store_cfg.vectors_per_block()),
      num_shards_(shard_count_for(store_cfg, policy, layout)) {
  if (store_cfg.block_bytes % store_cfg.vector_bytes != 0) {
    throw std::invalid_argument("vector_bytes must divide block_bytes");
  }
  if (layout.vectors_per_block() != vectors_per_block_) {
    throw std::invalid_argument("layout block size mismatch");
  }
  std::vector<BlockId> block_map(layout.num_blocks());
  for (BlockId b = 0; b < block_map.size(); ++b) {
    block_map[b] = first_block_ + b;
  }
  state_owner_ = make_state(policy, std::move(layout),
                            std::move(access_counts), std::move(block_map));
  state_.store(state_owner_.get(), std::memory_order_release);

  slab_.resize(state_owner_->cache.capacity() * vector_bytes_);
  shards_.reserve(num_shards_);
  for (std::uint32_t s = 0; s < num_shards_; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->block_buf.resize(block_bytes_);
    shards_.push_back(std::move(shard));
  }
}

BandanaTable::BandanaTable(const StoreConfig& store_cfg, TablePolicy policy,
                           BlockLayout layout,
                           std::vector<std::uint32_t> access_counts,
                           BlockId first_block, std::vector<BlockId> block_map)
    : num_vectors_(layout.num_vectors()),
      num_blocks_(layout.num_blocks()),
      first_block_(first_block),
      vector_bytes_(store_cfg.vector_bytes),
      block_bytes_(store_cfg.block_bytes),
      vectors_per_block_(store_cfg.vectors_per_block()),
      num_shards_(shard_count_for(store_cfg, policy, layout)) {
  if (store_cfg.block_bytes % store_cfg.vector_bytes != 0) {
    throw std::invalid_argument("vector_bytes must divide block_bytes");
  }
  if (layout.vectors_per_block() != vectors_per_block_) {
    throw std::invalid_argument("layout block size mismatch");
  }
  state_owner_ = make_state(policy, std::move(layout),
                            std::move(access_counts), std::move(block_map));
  state_.store(state_owner_.get(), std::memory_order_release);

  slab_.resize(state_owner_->cache.capacity() * vector_bytes_);
  shards_.reserve(num_shards_);
  for (std::uint32_t s = 0; s < num_shards_; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->block_buf.resize(block_bytes_);
    shards_.push_back(std::move(shard));
  }
}

void compose_block_bytes(const BlockLayout& layout,
                         const EmbeddingTable& values, BlockId b,
                         std::size_t vector_bytes,
                         std::span<std::byte> block) {
  std::memset(block.data(), 0, block.size());
  const auto members = layout.block_members(b);
  for (std::size_t i = 0; i < members.size(); ++i) {
    const auto src = values.vector_bytes_view(members[i]);
    std::memcpy(block.data() + i * vector_bytes, src.data(), vector_bytes);
  }
}

std::span<std::byte> BandanaTable::slot_bytes(std::uint32_t slot) {
  return {slab_.data() + std::size_t{slot} * vector_bytes_, vector_bytes_};
}

std::uint64_t BandanaTable::publish(const EmbeddingTable& values,
                                    BlockStorage& storage,
                                    std::uint64_t wave_blocks) {
  State& st = *state_owner_;
  if (values.num_vectors() != num_vectors_ ||
      values.vector_bytes() != vector_bytes_) {
    throw std::invalid_argument("publish: shape mismatch with layout");
  }
  const std::uint64_t total = st.layout.num_blocks();
  if (total == 0) return 0;
  const std::size_t chunk = static_cast<std::size_t>(std::min(
      wave_blocks == 0 ? kDefaultWriteWaveBlocks : wave_blocks, total));
  WaveComposeBuffer wave(storage, chunk * block_bytes_);
  std::vector<BlockWriteOp> ops;
  ops.reserve(chunk);
  std::uint64_t batches = 0;
  for (BlockId b0 = 0; b0 < total; b0 += chunk) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(chunk, total - b0));
    ops.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const auto img = wave.buf.subspan(i * block_bytes_, block_bytes_);
      compose_block_bytes(st.layout, values, b0 + static_cast<BlockId>(i),
                          vector_bytes_, img);
      ops.push_back({st.block_map[b0 + i], img});
    }
    storage.write_blocks(ops);
    ++batches;
  }
  return batches;
}

BandanaTable::RepublishDiff BandanaTable::republish(
    const EmbeddingTable& values, BlockStorage& storage,
    std::uint64_t wave_blocks) {
  State& st = *state_owner_;
  if (values.num_vectors() != num_vectors_ ||
      values.vector_bytes() != vector_bytes_) {
    throw std::invalid_argument("republish: shape mismatch with layout");
  }
  RepublishDiff diff;
  const std::uint64_t total = st.layout.num_blocks();
  if (total == 0) return diff;
  const std::size_t chunk = static_cast<std::size_t>(std::min(
      wave_blocks == 0 ? kDefaultWriteWaveBlocks : wave_blocks, total));
  // Changed blocks accumulate in the wave buffer and flush as one batched
  // write per full wave; each block's current bytes are read before any
  // pending write touches a DIFFERENT block, so the diff stays exact.
  WaveComposeBuffer wave(storage, chunk * block_bytes_);
  std::vector<std::byte> current(block_bytes_);
  std::vector<BlockWriteOp> ops;
  ops.reserve(chunk);
  const auto flush = [&] {
    if (ops.empty()) return;
    storage.write_blocks(ops);
    ++diff.write_batches;
    ops.clear();
  };
  for (BlockId b = 0; b < total; ++b) {
    const auto fresh =
        wave.buf.subspan(ops.size() * block_bytes_, block_bytes_);
    compose_block_bytes(st.layout, values, b, vector_bytes_, fresh);
    storage.read_block(st.block_map[b], current);
    if (std::memcmp(fresh.data(), current.data(), block_bytes_) == 0) {
      // Plan-diff early-out: the block's bytes are already what the new
      // values say — no write, and its members' cached entries stay warm.
      ++diff.skipped_blocks;
      continue;
    }
    ops.push_back({st.block_map[b], fresh});
    ++diff.written_blocks;
    // Cached bytes of this block's members are stale: drop them (the ids
    // and the learned layout stay valid — that is SHP's advantage over
    // K-means, §4.2.2). The caller excludes lookups, so no shard locks are
    // needed here.
    for (const VectorId v : st.layout.block_members(b)) {
      ++diff.written_vectors;
      if (st.cache.contains(v)) {
        st.cache.erase(v);
        st.free_slots[st.cache.shard_of(v)].push_back(st.slot_of[v]);
        st.prefetched[v] = 0;
      }
    }
    if (ops.size() == chunk) flush();
  }
  flush();
  metrics_.republish_writes.fetch_add(diff.written_vectors,
                                      std::memory_order_relaxed);
  return diff;
}

std::vector<BlockId> BandanaTable::swap_state(RetrainedState next) {
  State& cur = *state_owner_;
  if (next.policy.cache_vectors != cur.policy.cache_vectors) {
    throw std::invalid_argument(
        "swap_state: online retraining must keep the table's DRAM capacity "
        "(the slab is fixed at construction)");
  }
  auto fresh =
      make_state(next.policy, std::move(next.layout),
                 std::move(next.access_counts), std::move(next.block_map));

  // Global blocks only the old mapping referenced become reusable by the
  // next republish once the new state is visible.
  std::unordered_set<BlockId> kept(fresh->block_map.begin(),
                                   fresh->block_map.end());
  std::vector<BlockId> freed;
  for (const BlockId g : cur.block_map) {
    if (kept.find(g) == kept.end()) freed.push_back(g);
  }

  // Install under every shard lock (index order; lookups hold exactly one
  // shard lock, so no ordering hazard). A lookup that loaded the old state
  // pointer re-validates it under its shard lock and retries — it never
  // mutates the retired state.
  std::unique_ptr<State> old;
  {
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(shards_.size());
    for (auto& shard : shards_) locks.emplace_back(shard->mu);
    const std::size_t slab_needed = fresh->cache.capacity() * vector_bytes_;
    if (slab_needed > slab_.size()) slab_.resize(slab_needed);
    old = std::move(state_owner_);
    state_owner_ = std::move(fresh);
    // seq_cst pairs with the reader guards' enter + state load: a reader
    // the reclaim pass does not observe entered is ordered after this
    // store and therefore loads the NEW state, never the one retired here.
    state_.store(state_owner_.get(), std::memory_order_seq_cst);
  }
  // Retire outside the shard locks (readers never take reclaim_mu_) and
  // immediately run a reclaim pass: with no straggling readers the old
  // state is freed right here, and under load it goes once both banks
  // drain on later passes.
  {
    std::lock_guard reclaim_lock(reclaim_mu_);
    retired_.push_back({std::move(old), ++retire_seq_});
    reclaim_retired_locked();
  }
  return freed;
}

bool BandanaTable::bank_drained(std::uint32_t bank) const {
  for (std::uint32_t s = 0; s < kReaderSlots; ++s) {
    const ReaderSlot& slot = reader_banks_[bank][s];
    // Load exited BEFORE entered: both are monotone and an exit is always
    // preceded by its enter, so exited(t1) == entered(t2) with t1 < t2
    // forces entered(t1) == exited(t1) (nobody inside at t1) and
    // entered(t2) == entered(t1) (nobody entered since) — the slot held no
    // reader that predates this check.
    const std::uint64_t exited = slot.exited.load(std::memory_order_seq_cst);
    const std::uint64_t entered = slot.entered.load(std::memory_order_seq_cst);
    if (entered != exited) return false;
  }
  return true;
}

std::size_t BandanaTable::reclaim_retired_locked() {
  if (retired_.empty()) return 0;
  // Everything retired so far predates the bank observations below (both
  // happen under reclaim_mu_), so a drained bank covers retire_seq_.
  const std::uint64_t seq = retire_seq_;
  bool drained[2];
  for (std::uint32_t bank = 0; bank < 2; ++bank) {
    drained[bank] = bank_drained(bank);
    if (drained[bank]) bank_drained_seq_[bank] = seq;
  }
  // Flip only once the bank new readers are NOT entering has drained: new
  // readers then move onto it and the bank just flipped away from has
  // until the next pass to drain. Flipping on every pass instead can lock
  // into a phase where one bank is only ever checked just after it stopped
  // (or just as it resumed) taking readers, so it never reads drained.
  // reader_gen_ only changes under reclaim_mu_, held here.
  const std::uint64_t gen = reader_gen_.load(std::memory_order_relaxed);
  if (drained[(gen & 1) ^ 1]) {
    reader_gen_.fetch_add(1, std::memory_order_seq_cst);
  }
  const std::uint64_t safe =
      std::min(bank_drained_seq_[0], bank_drained_seq_[1]);
  std::size_t freed = 0;
  for (auto it = retired_.begin(); it != retired_.end();) {
    if (it->seq <= safe) {
      it = retired_.erase(it);
      ++freed;
    } else {
      ++it;
    }
  }
  return freed;
}

std::size_t BandanaTable::reclaim_retired() {
  std::lock_guard lock(reclaim_mu_);
  return reclaim_retired_locked();
}

std::size_t BandanaTable::retired_count() const {
  std::lock_guard lock(reclaim_mu_);
  return retired_.size();
}

std::vector<BlockId> BandanaTable::block_map() const {
  ReadGuard guard(*this);
  const State* st = state_.load(std::memory_order_seq_cst);
  return st->block_map;
}

BandanaTable::RetrainedState BandanaTable::mapping_snapshot() const {
  ReadGuard guard(*this);
  const State* st = state_.load(std::memory_order_seq_cst);
  return {st->layout, st->block_map, st->access_counts, st->policy};
}

void BandanaTable::cache_vector(State& st, std::uint32_t shard_idx, VectorId v,
                                std::span<const std::byte> bytes,
                                std::size_t point, bool is_prefetch) {
  const VectorId evicted = st.cache.insert(v, point);
  std::uint32_t slot;
  if (evicted != kInvalidVector) {
    slot = st.slot_of[evicted];  // same shard: eviction is shard-local
  } else {
    auto& free_slots = st.free_slots[shard_idx];
    assert(!free_slots.empty());
    slot = free_slots.back();
    free_slots.pop_back();
  }
  st.slot_of[v] = slot;
  std::memcpy(slot_bytes(slot).data(), bytes.data(), vector_bytes_);
  st.prefetched[v] = is_prefetch ? 1 : 0;
  if (is_prefetch) {
    metrics_.prefetch_inserted.fetch_add(1, std::memory_order_relaxed);
  }
}

void BandanaTable::admit_prefetches(State& st, std::uint32_t shard_idx,
                                    BlockId local_block,
                                    std::span<const std::byte> block) {
  const auto members = st.layout.block_members(local_block);
  for (std::size_t i = 0; i < members.size(); ++i) {
    const VectorId u = members[i];
    if (st.cache.contains(u)) continue;
    const std::span<const std::byte> bytes{block.data() + i * vector_bytes_,
                                           vector_bytes_};
    switch (st.policy.policy) {
      case PrefetchPolicy::kNone:
        return;
      case PrefetchPolicy::kAll:
        cache_vector(st, shard_idx, u, bytes, 0, /*is_prefetch=*/true);
        break;
      case PrefetchPolicy::kPosition:
        cache_vector(st, shard_idx, u, bytes, st.low_point, true);
        break;
      case PrefetchPolicy::kShadow:
        if (st.shadow->contains(u)) {
          cache_vector(st, shard_idx, u, bytes, 0, true);
        }
        break;
      case PrefetchPolicy::kShadowPosition:
        cache_vector(st, shard_idx, u, bytes,
                     st.shadow->contains(u) ? 0 : st.low_point, true);
        break;
      case PrefetchPolicy::kThreshold:
        if (st.access_counts[u] > st.policy.access_threshold) {
          cache_vector(st, shard_idx, u, bytes, 0, true);
        }
        break;
    }
  }
}

bool BandanaTable::is_cached(VectorId v) const {
  assert(v < num_vectors_);
  // Read-only peek: a state retired between the load and the lock is never
  // mutated again, so its answer is merely stale (the staged_only lookup
  // pipeline re-checks under the lock and defers on any disagreement).
  // The guard keeps a just-retired state alive across the deref.
  ReadGuard guard(*this);
  const State* st = state_.load(std::memory_order_seq_cst);
  std::lock_guard lock(shards_[st->cache.shard_of(v)]->mu);
  return st->cache.contains(v);
}

BandanaTable::LookupOutcome BandanaTable::lookup(
    VectorId v, BlockStorage& storage, std::span<std::byte> out,
    std::uint64_t epoch, const StagedBlockReads* staged, bool staged_only) {
  assert(v < num_vectors_);
  assert(out.size() >= vector_bytes_);
  // The guard spans the whole retry loop: every state pointer loaded below
  // stays alive until we return, even if a concurrent swap retires it and
  // a reclaim pass runs before we reach the shard lock.
  ReadGuard guard(*this);
  State* st = state_.load(std::memory_order_seq_cst);
  for (;;) {
    // Everything a lookup touches — the cache entry, the block, its other
    // members, the shadow entry, the slab slots — lives in the one shard
    // the state's layout assigns v to.
    Shard& shard = *shards_[st->cache.shard_of(v)];
    std::lock_guard lock(shard.mu);
    // Re-validate under the lock: swap_state publishes the new state while
    // holding every shard lock, so a stale pointer here means the swap
    // fully completed — retry against the new mapping (which may stripe v
    // to a different shard). Nothing was mutated yet.
    State* cur = state_.load(std::memory_order_acquire);
    if (cur != st) {
      st = cur;
      continue;
    }
    return lookup_locked(*st, st->cache.shard_of(v), v, storage, out, epoch,
                         staged, staged_only);
  }
}

BandanaTable::LookupOutcome BandanaTable::lookup_locked(
    State& st, std::uint32_t shard_idx, VectorId v, BlockStorage& storage,
    std::span<std::byte> out, std::uint64_t epoch,
    const StagedBlockReads* staged, bool staged_only) {
  LookupOutcome outcome;
  Shard& shard = *shards_[shard_idx];
  // Airtight staged mode: if this lookup would miss and its block was not
  // staged (evicted between the request's peek and now, truncated at the
  // staging cap, or retargeted by a mapping swap since the peek), defer it
  // before mutating ANY state — same shard lock, so the contains() peek
  // and the access() below cannot disagree. The caller re-runs the lookup
  // after a batched retry fetch.
  const BlockId local_b = st.layout.block_of(v);
  const BlockId global_b = st.block_map[local_b];
  if (staged_only && staged != nullptr && !st.cache.contains(v) &&
      staged->find(global_b).empty()) {
    outcome.deferred = true;
    return outcome;
  }
  metrics_.lookups.fetch_add(1, std::memory_order_relaxed);
  metrics_.app_bytes_served.fetch_add(vector_bytes_,
                                      std::memory_order_relaxed);

  if (st.shadow) {
    if (!st.shadow->access(v)) st.shadow->insert(v);
  }

  if (st.cache.access(v)) {
    metrics_.hits.fetch_add(1, std::memory_order_relaxed);
    outcome.hit = true;
    if (st.prefetched[v]) {
      metrics_.prefetch_hits.fetch_add(1, std::memory_order_relaxed);
      st.prefetched[v] = 0;
    }
    std::memcpy(out.data(), slot_bytes(st.slot_of[v]).data(), vector_bytes_);
    return outcome;
  }

  // Miss: fetch the block (the epoch mark is shard-local because blocks
  // never span shards). ">=" rather than "==": a mark left by a *newer*
  // concurrent scope means the block was just fetched, so this scope's
  // read coalesces with it instead of being re-counted (and re-admitted).
  metrics_.miss_bytes.fetch_add(vector_bytes_, std::memory_order_relaxed);
  const bool already_read = st.block_epochs[local_b] >= epoch;
  // The request's staging pass may already hold this block's bytes (one
  // batched overlapped read for the whole request). Store's staged_only
  // pipeline guarantees the block is staged by the time we get here; the
  // inline fallback below only serves callers running without staging.
  std::span<const std::byte> block_bytes;
  if (staged != nullptr) {
    block_bytes = staged->find(global_b);
  }
  if (block_bytes.empty()) {
    storage.read_block(global_b, shard.block_buf);
    block_bytes = shard.block_buf;
  }
  if (!already_read) {
    st.block_epochs[local_b] = epoch;
    metrics_.nvm_block_reads.fetch_add(1, std::memory_order_relaxed);
    metrics_.nvm_bytes_read.fetch_add(block_bytes_,
                                      std::memory_order_relaxed);
    outcome.nvm_read = true;
    outcome.block_read = global_b;
  }

  const std::uint32_t pos_in_block =
      st.layout.position_of(v) % vectors_per_block_;
  const std::span<const std::byte> vector_view =
      block_bytes.subspan(std::size_t{pos_in_block} * vector_bytes_,
                          vector_bytes_);
  std::memcpy(out.data(), vector_view.data(), vector_bytes_);
  cache_vector(st, shard_idx, v, vector_view, 0, /*is_prefetch=*/false);
  if (!already_read && st.policy.policy != PrefetchPolicy::kNone) {
    admit_prefetches(st, shard_idx, local_b, block_bytes);
  }
  return outcome;
}

CacheShardStats BandanaTable::shard_stats(std::uint32_t s) const {
  ReadGuard guard(*this);
  const State* st = state_.load(std::memory_order_seq_cst);
  std::lock_guard lock(shards_[s]->mu);
  return st->cache.shard_stats(s);
}

CacheShardStats BandanaTable::cache_stats() const {
  CacheShardStats total;
  for (std::uint32_t s = 0; s < num_shards_; ++s) {
    total += shard_stats(s);
  }
  return total;
}

std::vector<VectorId> BandanaTable::cache_contents() const {
  ReadGuard guard(*this);
  const State* st = state_.load(std::memory_order_seq_cst);
  std::vector<VectorId> out;
  for (std::uint32_t s = 0; s < num_shards_; ++s) {
    std::lock_guard lock(shards_[s]->mu);
    const auto shard = st->cache.shard_contents(s);
    out.insert(out.end(), shard.begin(), shard.end());
  }
  return out;
}

}  // namespace bandana
