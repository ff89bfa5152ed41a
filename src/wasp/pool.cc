#include "src/wasp/pool.h"

#include <chrono>

#include "src/base/log.h"
#include "src/wasp/abi.h"

namespace wasp {
namespace {

// Bound of the lock-free PopMatch: how many nodes a fast-path pop examines
// before giving up on a stack.  A keyed probe scans only its own
// generation's stack, so only shells of another memory size can hide a
// match; on a miss the acquire takes a free clean shell first and sweeps
// exhaustively only without one.  A clean probe's false miss falls through
// to the slow path's exhaustive sweep.
constexpr int kPopScan = 8;
// Safety bound for exhaustive scans and diagnostic walks (a concurrent
// pusher can extend a stack mid-scan; shells are finite, so this is never
// hit in practice).
constexpr int kScanGuard = 1 << 20;

}  // namespace

Pool::Pool(const PoolOptions& options) : options_(options) {
  if (options_.mode == CleanMode::kAsync) {
    cleaners_.reserve(kCleaners);
    for (size_t i = 0; i < kCleaners; ++i) {
      cleaners_.emplace_back([this] { CleanerLoop(); });
    }
  }
}

Pool::~Pool() {
  stop_.store(true);
  {
    // Empty critical section: a cleaner that evaluated its predicate before
    // the store is now blocked in wait and will see the notify.
    std::lock_guard<std::mutex> lock(cleaner_mu_);
  }
  cleaner_cv_.notify_all();
  for (std::thread& cleaner : cleaners_) {
    if (cleaner.joinable()) {
      cleaner.join();
    }
  }
  // Every pooled shell — on the free, a parked, the dirty or the quarantine
  // stack — lives in a node that still owns its raw Vm pointer (UnwrapShell
  // nulls it out when a shell leaves the pool).  The destructor runs
  // exclusively, so a plain arena sweep reclaims them all.
  for (auto& node : all_nodes_) {
    delete node->vm;
    node->vm = nullptr;
  }
}

Pool::ShellNode* Pool::WrapShell(std::unique_ptr<vkvm::Vm> vm, uint64_t private_bytes,
                                 GenInfo* gen) {
  ShellNode* node = spare_nodes_.Pop();
  if (node == nullptr) {
    auto owned = std::make_unique<ShellNode>();
    node = owned.get();
    std::lock_guard<std::mutex> lock(node_mu_);
    all_nodes_.push_back(std::move(owned));
  }
  node->mem_size = vm->config().mem_size;
  node->private_bytes = private_bytes;
  node->gen = gen;
  node->vm = vm.release();
  return node;
}

std::unique_ptr<vkvm::Vm> Pool::UnwrapShell(ShellNode* node) {
  std::unique_ptr<vkvm::Vm> vm(node->vm);
  node->vm = nullptr;
  node->gen = nullptr;
  spare_nodes_.Push(node);
  return vm;
}

void Pool::CleanShell(vkvm::Vm* vm, bool charge_inline) {
  // Zero only the pages this virtine dirtied (real work, proportional to
  // use), reset the vCPU, and restart cycle accounting for the next tenant.
  // The EPT first-touch map is deliberately retained: reusing the mappings
  // is exactly why pooled shells are cheap.
  const uint64_t zeroed = vm->memory().ZeroDirtyPages();
  vm->ResetVcpu(kImageLoadAddr);
  vm->ResetAccounting();
  if (charge_inline) {
    // Cleaning on a critical path (sync release, or an inline reclaim of an
    // affine shell during acquire) charges its modeled memset cost to the
    // shell's next tenant.  The async cleaner crew ("Wasp+CA") absorbs it
    // off the critical path instead.
    vm->ChargeCopy(zeroed);
  }
  stats_.cleans.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_zeroed.fetch_add(zeroed, std::memory_order_relaxed);
}

Pool::ShellNode* Pool::PopMatch(TaggedStack<ShellNode>& stack, uint64_t mem_size, int limit) {
  // Popped mismatches chain through their own `next`, last popped first:
  // the popper owns them until it pushes them back, and Push rewrites
  // `next` anyway.
  ShellNode* mismatched = nullptr;
  ShellNode* found = nullptr;
  for (int i = 0; i < limit; ++i) {
    ShellNode* node = stack.Pop();
    if (node == nullptr) {
      break;
    }
    if (mem_size == 0 || node->mem_size == mem_size) {
      found = node;
      break;
    }
    node->next.store(mismatched, std::memory_order_relaxed);
    mismatched = node;
  }
  // Last popped goes back first, so the stack keeps its original order.
  while (mismatched != nullptr) {
    ShellNode* next = mismatched->next.load(std::memory_order_relaxed);
    stack.Push(mismatched);
    mismatched = next;
  }
  return found;
}

Pool::ShellNode* Pool::Sweep(bool affine, uint64_t mem_size, GenInfo* gen) {
  std::lock_guard<std::mutex> lock(sweep_mu_);
  if (!affine) {
    return PopMatch(free_, mem_size, kScanGuard);
  }
  if (gen != nullptr) {
    return PopMatch(gen->parked, mem_size, kScanGuard);
  }
  ShellNode* node = nullptr;
  std::shared_lock<std::shared_mutex> gens(gen_mu_);
  for (auto it = generations_.begin(); node == nullptr && it != generations_.end(); ++it) {
    node = PopMatch(it->second->parked, mem_size, kScanGuard);
  }
  return node;
}

std::unique_ptr<vkvm::Vm> Pool::Serve(ShellNode* node, bool* from_pool) {
  if (node->gen != nullptr) {
    ReleaseAffineCharge(node->gen, node->private_bytes);
  }
  stats_.pool_hits.fetch_add(1, std::memory_order_relaxed);
  if (from_pool != nullptr) {
    *from_pool = true;
  }
  return UnwrapShell(node);
}

Pool::GenInfo* Pool::FindGen(uint64_t generation) const {
  std::shared_lock<std::shared_mutex> lock(gen_mu_);
  auto it = generations_.find(generation);
  return it == generations_.end() ? nullptr : it->second.get();
}

Pool::GenInfo* Pool::FindOrCreateGen(uint64_t generation) {
  if (GenInfo* gen = FindGen(generation)) {
    return gen;
  }
  std::unique_lock<std::shared_mutex> lock(gen_mu_);
  std::unique_ptr<GenInfo>& slot = generations_[generation];
  if (slot == nullptr) {
    slot = std::make_unique<GenInfo>();
    slot->generation = generation;
  }
  return slot.get();
}

bool Pool::TryChargeAffine(GenInfo* gen, uint64_t shared_bytes, uint64_t private_bytes) {
  if (gen->retired.load(std::memory_order_acquire)) {
    return false;  // dead generation: parking it would strand the memory
  }
  // Park-time LRU: every affine hit parks the shell right back after its
  // run, so refreshing the tick on park tracks use recency without a second
  // bookkeeping call on the acquire path.
  gen->last_use_tick.store(use_tick_.fetch_add(1, std::memory_order_relaxed) + 1,
                           std::memory_order_relaxed);
  if (shared_bytes != 0) {
    // Declare the shared size before the parked-shell transition below so a
    // 0->1 charge always reads a declared value.  Every COW-backed park of
    // one generation maps the same extent buffer (a property of the
    // snapshot), which is what lets the 1->0 release below pair with it
    // exactly.
    uint64_t expected = 0;
    gen->shared_bytes.compare_exchange_strong(expected, shared_bytes,
                                              std::memory_order_relaxed,
                                              std::memory_order_relaxed);
  }
  gen->private_bytes.fetch_add(private_bytes, std::memory_order_relaxed);
  stats_.affine_private_bytes.fetch_add(private_bytes, std::memory_order_relaxed);
  uint64_t charged = private_bytes;
  if (gen->parked_shells.fetch_add(1, std::memory_order_acq_rel) == 0) {
    // First shell of the generation in: charge the extent buffer once.  The
    // 0->1 and 1->0 transitions of the counter strictly alternate, so this
    // charge pairs with exactly one release.
    const uint64_t sb = gen->shared_bytes.load(std::memory_order_relaxed);
    if (sb != 0) {
      stats_.affine_shared_bytes.fetch_add(sb, std::memory_order_relaxed);
      charged += sb;
    }
  }
  stats_.affine_resident_bytes.fetch_add(charged, std::memory_order_relaxed);
  affine_count_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void Pool::ReleaseAffineCharge(GenInfo* gen, uint64_t private_bytes) {
  affine_count_.fetch_sub(1, std::memory_order_relaxed);
  gen->private_bytes.fetch_sub(private_bytes, std::memory_order_relaxed);
  stats_.affine_private_bytes.fetch_sub(private_bytes, std::memory_order_relaxed);
  uint64_t released = private_bytes;
  if (gen->parked_shells.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last shell out releases the generation's shared charge: the extent
    // buffer may live on (snapshot store, in-flight restores hold refs), but
    // nothing is parked against it any more.
    const uint64_t sb = gen->shared_bytes.load(std::memory_order_relaxed);
    if (sb != 0) {
      stats_.affine_shared_bytes.fetch_sub(sb, std::memory_order_relaxed);
      released += sb;
    }
  }
  stats_.affine_resident_bytes.fetch_sub(released, std::memory_order_relaxed);
}

void Pool::QueueDirty(std::unique_ptr<vkvm::Vm> vm) {
  ShellNode* node = WrapShell(std::move(vm), 0, nullptr);
  // Count before push: DrainCleaner must never observe dirty == 0 &&
  // in_flight == 0 while a node is physically queued.  The notify is
  // mutex-free — cleaners wait with a timeout as the belt against it racing
  // a wait entry.
  dirty_count_.fetch_add(1);
  dirty_.Push(node);
  cleaner_cv_.notify_one();
}

void Pool::Dispose(std::unique_ptr<vkvm::Vm> vm) {
  switch (options_.mode) {
    case CleanMode::kNone:
      return;  // no pooling: drop the shell (unreachable — kNone never parks)
    case CleanMode::kSync:
      // No crew to hand it to; clean here but off the modeled critical path
      // (eviction/retirement is maintenance, not an acquire or release).
      CleanShell(vm.get(), /*charge_inline=*/false);
      Park(WrapShell(std::move(vm), 0, nullptr));
      return;
    case CleanMode::kAsync:
      QueueDirty(std::move(vm));
      return;
  }
}

void Pool::Park(ShellNode* node) {
  GenInfo* gen = node->gen;  // read before the node is visible to others
  (gen != nullptr ? gen->parked : free_).Push(node);
  if (gen != nullptr) {
    // RetireGeneration may have swept between the shell's charge and this
    // push; re-check behind a seq_cst fence (Dekker with the retirer's
    // flag-store/sweep) and run the sweep ourselves if so.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (gen->retired.load(std::memory_order_relaxed)) {
      RetireSweep(gen);
    }
  }
}

void Pool::RetireSweep(GenInfo* gen) {
  while (ShellNode* node = gen->parked.Pop()) {
    ReleaseAffineCharge(gen, node->private_bytes);
    stats_.affine_retired.fetch_add(1, std::memory_order_relaxed);
    stats_.affine_reclaims.fetch_add(1, std::memory_order_relaxed);
    Dispose(UnwrapShell(node));
  }
}

void Pool::RetireGeneration(uint64_t generation) {
  if (generation == 0) {
    return;
  }
  // Mark the generation dead *before* sweeping.  The park path pushes its
  // node and then re-checks the flag (both sides fenced seq_cst, the Dekker
  // pattern): either this sweep sees the node, or the parker sees the flag
  // and re-runs the sweep itself — a dead generation can never re-strand
  // memory.
  GenInfo* gen = FindOrCreateGen(generation);
  gen->retired.store(true, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  RetireSweep(gen);
}

void Pool::EnforceAffineBudget() {
  if (options_.affine_budget_bytes == 0) {
    return;
  }
  // Bounded sweep: racing acquires can momentarily hide a victim's shells,
  // so cap the attempts instead of spinning on a moving target.
  for (int attempt = 0; attempt < 256; ++attempt) {
    if (stats_.affine_resident_bytes.load(std::memory_order_relaxed) <=
        options_.affine_budget_bytes) {
      return;
    }
    // Least-recently-used live generation with parked shells.
    GenInfo* victim = nullptr;
    {
      std::shared_lock<std::shared_mutex> lock(gen_mu_);
      uint64_t best_tick = UINT64_MAX;
      for (const auto& [generation, info] : generations_) {
        const uint64_t tick = info->last_use_tick.load(std::memory_order_relaxed);
        if (info->parked_shells.load(std::memory_order_relaxed) > 0 &&
            !info->retired.load(std::memory_order_relaxed) && tick < best_tick) {
          best_tick = tick;
          victim = info.get();
        }
      }
    }
    if (victim == nullptr) {
      return;  // nothing parked any more (raced with acquires)
    }
    ShellNode* node = victim->parked.Pop();
    if (node == nullptr) {
      continue;  // the victim's shells were acquired mid-sweep; re-pick
    }
    ReleaseAffineCharge(victim, node->private_bytes);
    stats_.affine_evictions.fetch_add(1, std::memory_order_relaxed);
    stats_.affine_reclaims.fetch_add(1, std::memory_order_relaxed);
    Dispose(UnwrapShell(node));
  }
}

std::unique_ptr<vkvm::Vm> Pool::TryFast(GenInfo* gen, uint64_t mem_size, bool* from_pool) {
  ShellNode* node = PopMatch(gen != nullptr ? gen->parked : free_, mem_size, kPopScan);
  if (node == nullptr) {
    return nullptr;
  }
  stats_.freelist_hits.fetch_add(1, std::memory_order_relaxed);
  if (gen != nullptr) {
    stats_.affine_hits.fetch_add(1, std::memory_order_relaxed);
  }
  return Serve(node, from_pool);
}

std::unique_ptr<vkvm::Vm> Pool::AcquireSlow(const vkvm::VmConfig& config, GenInfo* gen,
                                            bool* affine_hit, bool* from_pool) {
  stats_.slow_path_acquires.fetch_add(1, std::memory_order_relaxed);
  // The generation's exhaustive sweep first: its shell may sit deeper in
  // its stack than the bounded pop reached (under shells of another memory
  // size), and serving the resident snapshot beats serving a clean shell
  // plus a COW map.
  if (gen != nullptr) {
    if (ShellNode* node = Sweep(/*affine=*/true, config.mem_size, gen)) {
      stats_.affine_hits.fetch_add(1, std::memory_order_relaxed);
      if (affine_hit != nullptr) {
        *affine_hit = true;
      }
      return Serve(node, from_pool);
    }
  }
  // Exhaustive clean sweep: before paying vm_create, make sure the free
  // stack holds no fitting shell (a bounded fast-path miss is not proof of
  // emptiness).
  if (ShellNode* node = Sweep(/*affine=*/false, config.mem_size, nullptr)) {
    return Serve(node, from_pool);
  }
  // Reclaim (clean) an already-parked affine shell of any generation — it
  // is dirty, so clean it first — before creating from scratch.  The clean
  // runs outside the sweep mutex: zeroing megabytes under it would convoy
  // concurrent sweepers.
  if (affine_count_.load(std::memory_order_relaxed) > 0) {
    if (ShellNode* node = Sweep(/*affine=*/true, config.mem_size, nullptr)) {
      std::unique_ptr<vkvm::Vm> vm = Serve(node, from_pool);
      CleanShell(vm.get(), /*charge_inline=*/true);
      stats_.affine_reclaims.fetch_add(1, std::memory_order_relaxed);
      return vm;
    }
  }
  stats_.fresh_creates.fetch_add(1, std::memory_order_relaxed);
  if (from_pool != nullptr) {
    *from_pool = false;
  }
  return vkvm::Vm::Create(config);
}

std::unique_ptr<vkvm::Vm> Pool::AcquireAffine(const vkvm::VmConfig& config,
                                              uint64_t generation, bool* affine_hit,
                                              bool* from_pool) {
  stats_.acquires.fetch_add(1, std::memory_order_relaxed);
  if (affine_hit != nullptr) {
    *affine_hit = false;
  }
  GenInfo* gen = generation != 0 && affine_count_.load(std::memory_order_relaxed) > 0
                     ? FindGen(generation)
                     : nullptr;
  std::unique_ptr<vkvm::Vm> vm;
  if (gen != nullptr) {
    vm = TryFast(gen, config.mem_size, from_pool);
    if (vm != nullptr && affine_hit != nullptr) {
      *affine_hit = true;
    }
  }
  if (vm == nullptr) {
    vm = TryFast(nullptr, config.mem_size, from_pool);
  }
  if (vm == nullptr) {
    vm = AcquireSlow(config, gen, affine_hit, from_pool);
  }
  return vm;
}

void Pool::Release(std::unique_ptr<vkvm::Vm> vm) {
  stats_.releases.fetch_add(1, std::memory_order_relaxed);
  switch (options_.mode) {
    case CleanMode::kNone:
      // Drop it: the host kernel reclaims the context.
      return;
    case CleanMode::kSync: {
      CleanShell(vm.get(), /*charge_inline=*/true);
      Park(WrapShell(std::move(vm), 0, nullptr));
      return;
    }
    case CleanMode::kAsync:
      QueueDirty(std::move(vm));
      return;
  }
}

void Pool::ReleaseAffine(std::unique_ptr<vkvm::Vm> vm, uint64_t generation) {
  VB_CHECK(generation != 0, "ReleaseAffine requires a snapshot generation");
  stats_.releases.fetch_add(1, std::memory_order_relaxed);
  if (options_.mode == CleanMode::kNone) {
    // No pooling: drop the shell like a plain release would.
    return;
  }
  // The whole point: no zeroing.  The snapshot plus the epoch-dirty delta
  // fully describe this shell's memory; record the delta size (the next
  // restore's work) and park.  Accounting restarts for the next tenant; the
  // vCPU is reset by RestoreArch on the next restore.
  vm->ResetAccounting();
  const vhw::GuestMemory& mem = vm->memory();
  const uint64_t delta_pages = mem.CountEpochDirtyPages();
  // Residency charge: a COW-backed shell pays for its privatized pages only,
  // which are its epoch-dirty pages, and its base is the generation's shared
  // charge (once per generation, not per shell); a shell without a base
  // holds a full private copy and pays its whole memory.
  const uint64_t shared_bytes = mem.HasCowBase() ? mem.cow_base()->byte_size() : 0;
  const uint64_t private_bytes =
      mem.HasCowBase() ? delta_pages << vhw::kPageBits : vm->config().mem_size;
  GenInfo* gen = FindOrCreateGen(generation);
  if (!TryChargeAffine(gen, shared_bytes, private_bytes)) {
    // The generation was retired while this invocation was in flight:
    // divert the shell to the cleaning path — a dead generation must never
    // re-park.
    stats_.affine_retired.fetch_add(1, std::memory_order_relaxed);
    stats_.affine_reclaims.fetch_add(1, std::memory_order_relaxed);
    Dispose(std::move(vm));
    return;
  }
  stats_.affine_parks.fetch_add(1, std::memory_order_relaxed);
  stats_.delta_pages.fetch_add(delta_pages, std::memory_order_relaxed);
  Park(WrapShell(std::move(vm), private_bytes, gen));
  // The park may have pushed parked residency over budget; evict LRU
  // generations until it fits again.
  EnforceAffineBudget();
}

void Pool::Quarantine(std::unique_ptr<vkvm::Vm> vm) {
  // Counted as a release for acquire/release conservation: every acquired
  // shell goes back through exactly one of Release / ReleaseAffine /
  // Quarantine.
  stats_.releases.fetch_add(1, std::memory_order_relaxed);
  stats_.quarantined.fetch_add(1, std::memory_order_relaxed);
  if (options_.mode != CleanMode::kAsync) {
    // No cleaner crew to scrub it: destroy the context outright.  Sync mode
    // deliberately does NOT clean-and-repool inline — quarantine reclamation
    // is the crew's job, and paying vm_create for the replacement is the
    // price of a fault, not of the fast path.
    stats_.quarantine_destroyed.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ShellNode* node = WrapShell(std::move(vm), 0, nullptr);
  // Count before push (the DrainCleaner contract, as with dirty_count_).
  quarantine_count_.fetch_add(1);
  quarantine_.Push(node);
  cleaner_cv_.notify_one();
}

std::unique_ptr<vkvm::Vm> Pool::StealParkedAffine(uint64_t generation) {
  if (generation == 0 || affine_count_.load(std::memory_order_relaxed) <= 0) {
    return nullptr;
  }
  GenInfo* gen = FindGen(generation);
  ShellNode* node = gen != nullptr ? gen->parked.Pop() : nullptr;
  if (node == nullptr) {
    return nullptr;
  }
  // Count like an affine acquire so acquire/release conservation holds (the
  // re-capture path releases the shell back when it is done).
  stats_.acquires.fetch_add(1, std::memory_order_relaxed);
  stats_.affine_hits.fetch_add(1, std::memory_order_relaxed);
  stats_.freelist_hits.fetch_add(1, std::memory_order_relaxed);
  return Serve(node, nullptr);
}

std::unique_ptr<vkvm::Vm> Pool::PopDirty() {
  ShellNode* node = dirty_.Pop();
  if (node == nullptr) {
    return nullptr;
  }
  // Order matters for DrainCleaner: raise in-flight before dropping the
  // dirty count so (dirty == 0 && in_flight == 0) implies truly drained.
  cleaning_in_flight_.fetch_add(1);
  dirty_count_.fetch_sub(1);
  return UnwrapShell(node);
}

void Pool::CleanerLoop() {
  while (true) {
    // Quarantined shells first: they are the rarest and the only ones whose
    // reclamation gates correctness (a dirty shell merely delays reuse; a
    // quarantined one holds a faulted invocation's state).  Transfer to
    // in-flight before dropping the count, as with PopDirty, so DrainCleaner
    // never observes a false drain.
    if (ShellNode* qnode = quarantine_.Pop(); qnode != nullptr) {
      cleaning_in_flight_.fetch_add(1);
      quarantine_count_.fetch_sub(1);
      std::unique_ptr<vkvm::Vm> qvm = UnwrapShell(qnode);
      // Full scrub: ZeroDirtyPages drops any COW base and clears the
      // privatized set, so nothing of the faulted tenant — image, writes,
      // snapshot mapping — survives into the readmitted shell.
      CleanShell(qvm.get(), /*charge_inline=*/false);
      // Readmit via the free stack only after the scrub.
      Park(WrapShell(std::move(qvm), 0, nullptr));
      stats_.quarantine_scrubbed.fetch_add(1, std::memory_order_relaxed);
      cleaning_in_flight_.fetch_sub(1);
      drain_cv_.notify_all();
      continue;
    }
    std::unique_ptr<vkvm::Vm> vm = PopDirty();
    if (vm == nullptr) {
      if (stop_.load()) {
        return;
      }
      std::unique_lock<std::mutex> lock(cleaner_mu_);
      // Timed wait: the release path notifies without holding cleaner_mu_
      // (it is lock-free), so a notify can race a wait entry and be missed;
      // the timeout bounds that stall instead of a mutex closing it.
      cleaner_cv_.wait_for(lock, std::chrono::milliseconds(1), [&] {
        return stop_.load() || dirty_count_.load() > 0 || quarantine_count_.load() > 0;
      });
      continue;
    }
    CleanShell(vm.get(), /*charge_inline=*/false);
    Park(WrapShell(std::move(vm), 0, nullptr));
    cleaning_in_flight_.fetch_sub(1);
    drain_cv_.notify_all();
  }
}

void Pool::DrainCleaner() {
  if (options_.mode != CleanMode::kAsync) {
    return;
  }
  std::unique_lock<std::mutex> lock(cleaner_mu_);
  while (!(dirty_count_.load() == 0 && quarantine_count_.load() == 0 &&
           cleaning_in_flight_.load() == 0)) {
    // Timed wait for the same reason as the cleaners': the completion
    // notify is sent without the mutex.
    drain_cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
}

void Pool::Prewarm(const vkvm::VmConfig& config, int count) {
  for (int i = 0; i < count; ++i) {
    auto vm = vkvm::Vm::Create(config);
    vm->ResetAccounting();
    free_.Push(WrapShell(std::move(vm), 0, nullptr));
  }
}

PoolStats Pool::stats() const {
  PoolStats out;
  out.acquires = stats_.acquires.load(std::memory_order_relaxed);
  out.pool_hits = stats_.pool_hits.load(std::memory_order_relaxed);
  out.fresh_creates = stats_.fresh_creates.load(std::memory_order_relaxed);
  out.releases = stats_.releases.load(std::memory_order_relaxed);
  out.cleans = stats_.cleans.load(std::memory_order_relaxed);
  out.bytes_zeroed = stats_.bytes_zeroed.load(std::memory_order_relaxed);
  out.freelist_hits = stats_.freelist_hits.load(std::memory_order_relaxed);
  out.slow_path_acquires = stats_.slow_path_acquires.load(std::memory_order_relaxed);
  out.affine_hits = stats_.affine_hits.load(std::memory_order_relaxed);
  out.affine_parks = stats_.affine_parks.load(std::memory_order_relaxed);
  out.affine_reclaims = stats_.affine_reclaims.load(std::memory_order_relaxed);
  out.delta_pages = stats_.delta_pages.load(std::memory_order_relaxed);
  out.affine_evictions = stats_.affine_evictions.load(std::memory_order_relaxed);
  out.affine_retired = stats_.affine_retired.load(std::memory_order_relaxed);
  out.affine_resident_bytes = stats_.affine_resident_bytes.load(std::memory_order_relaxed);
  out.affine_shared_bytes = stats_.affine_shared_bytes.load(std::memory_order_relaxed);
  out.affine_private_bytes = stats_.affine_private_bytes.load(std::memory_order_relaxed);
  out.quarantined = stats_.quarantined.load(std::memory_order_relaxed);
  out.quarantine_scrubbed = stats_.quarantine_scrubbed.load(std::memory_order_relaxed);
  out.quarantine_destroyed = stats_.quarantine_destroyed.load(std::memory_order_relaxed);
  const int64_t qnow = quarantine_count_.load(std::memory_order_relaxed);
  out.quarantined_now = qnow > 0 ? static_cast<uint64_t>(qnow) : 0;
  return out;
}

AffineAccounting Pool::affine_accounting() const {
  AffineAccounting out;
  std::shared_lock<std::shared_mutex> lock(gen_mu_);
  out.generations.reserve(generations_.size());
  for (const auto& [generation, info] : generations_) {
    const int64_t parked = info->parked_shells.load(std::memory_order_relaxed);
    const uint64_t private_bytes = info->private_bytes.load(std::memory_order_relaxed);
    // The buffer is charged while any shell is parked.
    const uint64_t shared_charged =
        parked > 0 ? info->shared_bytes.load(std::memory_order_relaxed) : 0;
    if (parked <= 0 && private_bytes == 0) {
      continue;  // drained row (generations are immortal; rows are not shown)
    }
    AffineAccounting::Generation row;
    row.generation = generation;
    row.shared_bytes = shared_charged;
    row.private_bytes = private_bytes;
    row.parked_shells = parked;
    out.generations.push_back(row);
    // resident_bytes is *derived* from the very rows reported, so the
    // breakdown and the total can never disagree, even mid-race; it equals
    // the affine_resident_bytes gauge whenever the pool is quiescent.
    out.resident_bytes += shared_charged + private_bytes;
  }
  return out;
}

size_t Pool::TotalFreeShells() const {
  size_t n = 0;
  int guard = kScanGuard;
  for (ShellNode* node = free_.UnsafeHead(); node != nullptr && guard-- > 0;
       node = node->next.load(std::memory_order_acquire)) {
    ++n;
  }
  return n;
}

size_t Pool::AffineShells(uint64_t generation) const {
  GenInfo* gen = FindGen(generation);
  if (gen == nullptr) {
    return 0;
  }
  const int64_t parked = gen->parked_shells.load(std::memory_order_relaxed);
  return parked > 0 ? static_cast<size_t>(parked) : 0;
}

size_t Pool::TotalAffineShells() const {
  size_t n = 0;
  std::shared_lock<std::shared_mutex> lock(gen_mu_);
  for (const auto& [generation, info] : generations_) {
    const int64_t parked = info->parked_shells.load(std::memory_order_relaxed);
    if (parked > 0) {
      n += static_cast<size_t>(parked);
    }
  }
  return n;
}

}  // namespace wasp
