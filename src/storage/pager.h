#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/types.h"
#include "storage/buffer_pool.h"

/// \file pager.h
/// \brief Logical page manager with access counting and a real buffer pool.
///
/// The simulator's only cost metric is page accesses — exactly the paper's.
/// Structures own their content in memory; the Pager allocates page
/// identities and tallies reads/writes. A page is the unit of transfer; one
/// B+-tree node, one record-overflow chunk, or one object-store slot block
/// occupies one page.
///
/// Beyond the global counters, the pager keeps *scoped* tallies: a
/// ScopedAccessProbe tags the accesses of one stretch of work with a
/// PageOpKind and an optional label (the queried path id), so experiments
/// can decompose measured traffic per operation kind and per path without
/// instrumenting every call site. Excluded scopes (index builds) measure
/// their traffic through the same counting paths while keeping it out of
/// the main stats — the mechanism behind pager-accounted index builds.
///
/// The buffer pool (EnableBuffer) is a real fixed-capacity pool
/// (storage/buffer_pool.h): frames, CLOCK eviction, pins, dirty-page
/// write-back. Capacity 0 — the default — is the cost model's cold
/// assumption: every touch is charged. With capacity N, a read of a
/// resident page counts as a buffer hit instead of a read, a re-read after
/// eviction is charged again (eviction is observable), writes mark frames
/// dirty and are charged as write-backs when the dirty frame is evicted or
/// flushed, and PinRead/PinWrite return a PageGuard that keeps the frame
/// in the pool for the guard's lifetime. Anonymous bulk reads (record
/// overflow chains) and bulk writes bypass the pool.
///
/// Thread safety: the global counters live behind mu_, so concurrent
/// Note*/stats()/Allocate() calls are safe (the pager is the leaf of the
/// lock hierarchy in common/mutex.h). Scoped frames are *thread-local*: a
/// ScopedAccessProbe pushes a frame onto its own thread's frame stack, and
/// Note* calls from that thread accumulate into the frame without touching
/// mu_. The frame folds its tally into the global counters once, when it
/// closes, so N serving threads doing framed page traffic contend on one
/// mutex acquisition per *operation* instead of one per *page touch*.
/// Buffered touches preserve that design: they take only the pool's
/// *sharded* frame-table latches (leaves, like mu_; the two are never held
/// together) and defer the stats fold to frame close exactly like the
/// unbuffered fast path — mu_ stays one-acquisition-per-operation however
/// large the pool. Counting frames still must not nest per thread (see
/// ScopedAccessProbe); frames of different threads are independent.

namespace pathix {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// Counters of page traffic since the last Reset().
struct AccessStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t buffer_hits = 0;  ///< reads absorbed by the buffer pool

  std::uint64_t total() const { return reads + writes; }
  /// Page touches under the paper's cold-buffer cost model: what total()
  /// would have been with no pool. The index-selection layer prices
  /// workloads with this so its decisions don't depend on the buffer
  /// capacity it happens to be serving through.
  std::uint64_t logical_total() const { return reads + writes + buffer_hits; }

  AccessStats& operator+=(const AccessStats& o) {
    reads += o.reads;
    writes += o.writes;
    buffer_hits += o.buffer_hits;
    return *this;
  }
  /// Per-field *saturating* difference: a counter that would go negative
  /// clamps to zero instead of wrapping. Deltas are normally taken between
  /// snapshots of one monotonically-growing counter set, where the result
  /// is exact; clamping makes the operator total so that comparing tallies
  /// from different frames (where one side may lack a kind) stays sane.
  AccessStats operator-(const AccessStats& o) const {
    auto sat = [](std::uint64_t a, std::uint64_t b) {
      return a >= b ? a - b : 0;
    };
    return AccessStats{sat(reads, o.reads), sat(writes, o.writes),
                       sat(buffer_hits, o.buffer_hits)};
  }
  bool operator==(const AccessStats& o) const {
    return reads == o.reads && writes == o.writes &&
           buffer_hits == o.buffer_hits;
  }
  bool operator!=(const AccessStats& o) const { return !(*this == o); }
};

/// Kind of database activity a scoped accounting frame belongs to.
enum class PageOpKind {
  kQuery = 0,   ///< path query evaluation (indexed or naive)
  kInsert = 1,  ///< object insertion (store write + index maintenance)
  kDelete = 2,  ///< object deletion (store + index maintenance)
  kBuild = 3,   ///< index construction (excluded from the main stats)
  kOther = 4,
};
inline constexpr std::size_t kPageOpKindCount = 5;

const char* ToString(PageOpKind kind);

class Pager;

/// One open ScopedAccessProbe, linked into the owning thread's frame
/// stack. Thread-private: Note* reaches a frame only through the calling
/// thread's own stack, so only the owning thread ever touches the
/// counters and accumulation needs no lock.
struct AccessFrame {
  Pager* pager = nullptr;
  bool exclude = false;
  AccessStats local;     ///< everything this frame observed
  AccessStats deferred;  ///< observed but not yet folded into the globals
  AccessFrame* prev = nullptr;      ///< next outer frame (any pager)
  AccessFrame* redirect = nullptr;  ///< enclosing excluded frame, same pager
};

namespace internal {
/// Top of the calling thread's open-frame stack.
inline thread_local AccessFrame* tls_frame_top = nullptr;

/// The innermost open frame of \p pager on the calling thread, if any.
inline AccessFrame* FrameFor(const Pager* pager) {
  for (AccessFrame* f = tls_frame_top; f != nullptr; f = f->prev) {
    if (f->pager == pager) return f;
  }
  return nullptr;
}
}  // namespace internal

/// \brief RAII pin on one buffer-pool frame.
///
/// Returned by Pager::PinRead / Pager::PinWrite. While a guard is live the
/// pinned page cannot be evicted — CLOCK skips pinned frames — so a
/// multi-touch operation (a B-tree descent, an object-slot access) keeps
/// its working set resident for the operation's duration. Guards are
/// move-only and unpin on destruction. When the pool is off (capacity 0),
/// the page was not admitted (all frames pinned), or the touch landed in
/// an excluded scope, the guard is empty (pinned() == false) and
/// destruction is a no-op — pin/unpin has zero cost in the cold default.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(PageGuard&& o) noexcept : pager_(o.pager_), page_(o.page_) {
    o.pager_ = nullptr;
  }
  PageGuard& operator=(PageGuard&& o) noexcept {
    if (this != &o) {
      Release();
      pager_ = o.pager_;
      page_ = o.page_;
      o.pager_ = nullptr;
    }
    return *this;
  }
  ~PageGuard() { Release(); }

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;

  bool pinned() const { return pager_ != nullptr; }
  PageId page() const { return page_; }

  /// Drops the pin early (idempotent).
  inline void Release();

 private:
  friend class Pager;
  PageGuard(Pager* pager, PageId page) : pager_(pager), page_(page) {}

  Pager* pager_ = nullptr;
  PageId page_ = kInvalidPage;
};

/// The pins one operation holds (e.g. a root-to-leaf descent path).
using PinSet = std::vector<PageGuard>;

/// \brief Allocates page ids, counts accesses, owns the buffer pool.
class Pager {
 public:
  explicit Pager(std::size_t page_size) : page_size_(page_size) {}

  std::size_t page_size() const { return page_size_; }

  /// Allocates a fresh page id (allocation itself is not counted; the
  /// first write to the page is).
  PageId Allocate() { return next_page_.fetch_add(1); }

  /// Sets the buffer pool capacity to \p capacity_pages (0 disables — the
  /// default, matching the cost model's cold assumption). Warm state is
  /// preserved: the same capacity is a no-op, growing keeps every resident
  /// frame, shrinking evicts from the cold end. Dirty frames that leave
  /// the pool (shrink, or disable's flush) are charged as page writes.
  void EnableBuffer(std::size_t capacity_pages) EXCLUDES(mu_);

  // Every Note*/Pin* call is one Touch (below) with its I/O direction and
  // pool treatment fixed at compile time.

  void NoteRead(PageId page) EXCLUDES(mu_) {
    Touch<Io::kRead, PoolUse::kTouch>(page, 1);
  }
  void NoteWrite(PageId page) EXCLUDES(mu_) {
    Touch<Io::kWrite, PoolUse::kTouch>(page, 1);
  }

  /// As NoteRead, additionally pinning the page's frame for the returned
  /// guard's lifetime (empty guard when nothing was admitted — pool off,
  /// excluded scope, or every frame pinned).
  PageGuard PinRead(PageId page) EXCLUDES(mu_) {
    return Touch<Io::kRead, PoolUse::kPin>(page, 1) ? PageGuard(this, page)
                                                    : PageGuard();
  }
  /// As NoteWrite, with the PinRead pin contract.
  PageGuard PinWrite(PageId page) EXCLUDES(mu_) {
    return Touch<Io::kWrite, PoolUse::kPin>(page, 1) ? PageGuard(this, page)
                                                     : PageGuard();
  }

  /// Convenience for counting n sequential page reads (scans / chains).
  /// Bulk traffic always bypasses the buffer pool.
  void NoteReads(std::uint64_t n) EXCLUDES(mu_) {
    Touch<Io::kRead, PoolUse::kBypass>(kInvalidPage, n);
  }
  /// Convenience for counting n sequential page writes (bulk write-out).
  void NoteWrites(std::uint64_t n) EXCLUDES(mu_) {
    Touch<Io::kWrite, PoolUse::kBypass>(kInvalidPage, n);
  }

  /// Snapshot of the global counters (consistent across the three fields).
  AccessStats stats() const EXCLUDES(mu_) {
    ReaderMutexLock lock(&mu_);
    return stats_;
  }
  void ResetStats() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    stats_ = AccessStats{};
  }

  // ------------------------------------------------------ scoped tallies

  /// Accesses folded in by ScopedAccessProbe frames of \p kind (excluded
  /// kBuild frames included — they are measured, just not charged).
  AccessStats tally(PageOpKind kind) const EXCLUDES(mu_) {
    ReaderMutexLock lock(&mu_);
    return kind_tallies_[static_cast<std::size_t>(kind)];
  }
  /// Accesses per probe label (the queried path id), for labeled frames.
  /// Deterministically ordered.
  std::map<std::string, AccessStats> label_tallies() const EXCLUDES(mu_) {
    ReaderMutexLock lock(&mu_);
    return label_tallies_;
  }
  void ResetTallies() EXCLUDES(mu_);

  /// Pages allocated so far (storage footprint proxy).
  std::uint64_t allocated_pages() const { return next_page_.load(); }

  /// The buffer pool, for capacity/residency introspection (tests, bench
  /// reporting). Its counters are monotone across EnableBuffer calls.
  const BufferPool& buffer_pool() const { return pool_; }

  /// Mirrors the pager's counters into \p registry (obs/metrics.h):
  /// pathix_pager_io_total{io}, pathix_pager_pages_total{op,io},
  /// pathix_pager_path_pages_total{path,io} (io = read|write|hit),
  /// pathix_pager_buffer_hits_total, the pool's
  /// pathix_pager_buffer_{evictions,writebacks}_total and the
  /// pathix_pager_allocated_pages gauge. Counters are mirrored (MirrorTo)
  /// from the pager's own monotone tallies, so repeated exports converge
  /// to the same values. Never called with mu_ held: the pager and the
  /// metric mutexes are both leaves and must not nest.
  void ExportMetrics(obs::MetricsRegistry* registry) const EXCLUDES(mu_);

 private:
  friend class ScopedAccessProbe;
  friend class PageGuard;

  enum class Io { kRead, kWrite };
  /// How a touch meets the buffer pool: an ordinary touch, a touch that
  /// also pins the frame, or bulk traffic that never enters the pool.
  enum class PoolUse { kTouch, kPin, kBypass };

  /// The one routing of \p n touches (n > 1 only for kBypass) to the
  /// calling thread's innermost open frame when one exists: excluded
  /// scopes absorb the touch (measured, not charged, buffer bypassed),
  /// counting scopes accumulate it lock-free and defer the global-stats
  /// fold to frame close. With the buffer pool on, a pooled touch goes
  /// through the pool's sharded latches first and the resulting charge
  /// (hit, read, or write-backs) is deferred the same way — mu_ is never
  /// taken per touch on a framed path. Unframed touches (the concurrent
  /// smoke tests, ad-hoc tooling) take the locked path directly, so the
  /// global stats stay exact without any frame protocol. Returns true when
  /// the page is resident and pinned after a kPin touch. Inline: this is
  /// the hot path of every operation.
  template <Io kIo, PoolUse kPool>
  bool Touch(PageId page, std::uint64_t n) EXCLUDES(mu_) {
    constexpr std::uint64_t AccessStats::*kCount =
        kIo == Io::kRead ? &AccessStats::reads : &AccessStats::writes;
    constexpr bool kPooled = kPool != PoolUse::kBypass;
    constexpr bool kPinned = kPool == PoolUse::kPin;
    if (AccessFrame* f = internal::FrameFor(this)) {
      AccessFrame* sink = f->exclude ? f : f->redirect;
      if (sink != nullptr) {  // excluded scope: measured, not charged
        sink->local.*kCount += n;
        return false;
      }
      if (!kPooled || !buffered_.load(std::memory_order_relaxed)) {
        f->local.*kCount += n;
        f->deferred.*kCount += n;
        return false;
      }
      return kIo == Io::kRead ? BufferedRead(page, f, kPinned)
                              : BufferedWrite(page, f, kPinned);
    }
    if (kPooled && buffered_.load(std::memory_order_relaxed)) {
      return kIo == Io::kRead ? BufferedRead(page, nullptr, kPinned)
                              : BufferedWrite(page, nullptr, kPinned);
    }
    MutexLock lock(&mu_);
    stats_.*kCount += n;
    return false;
  }

  /// Buffered touch + charge: routes \p page through the pool (its sharded
  /// latches only — never mu_ on a framed path) and books the outcome
  /// (hit / read / write-backs) on frame \p f, or on the global stats when
  /// \p f is null. Returns true when the page is resident-and-pinned
  /// (\p pin) after the touch. Out of line: the unbuffered fast path of
  /// Touch stays small enough to inline.
  bool BufferedRead(PageId page, AccessFrame* f, bool pin = false)
      EXCLUDES(mu_);
  bool BufferedWrite(PageId page, AccessFrame* f, bool pin = false)
      EXCLUDES(mu_);

  /// Books \p d wherever the calling thread's accounting currently lands:
  /// the enclosing excluded frame, the open counting frame (deferred), or
  /// the global stats.
  void Charge(const AccessStats& d) EXCLUDES(mu_);

  /// PageGuard's unpin hook; charges any write-back the unpin triggered.
  void UnpinPage(PageId page) EXCLUDES(mu_);

  /// Folds a closing frame into the globals under one lock: deferred
  /// counts into the main stats, the frame's full tally into the
  /// (kind, label) tallies.
  void CloseFrame(PageOpKind kind, const std::string& label,
                  const AccessFrame& frame) EXCLUDES(mu_);

  std::size_t page_size_;
  mutable Mutex mu_;
  std::atomic<PageId> next_page_{0};
  AccessStats stats_ GUARDED_BY(mu_);

  std::array<AccessStats, kPageOpKindCount> kind_tallies_ GUARDED_BY(mu_){};
  std::map<std::string, AccessStats> label_tallies_ GUARDED_BY(mu_);

  /// Mirrors pool capacity > 0 so Touch picks the lock-free cold path
  /// without taking any lock first.
  std::atomic<bool> buffered_{false};
  /// The pool synchronizes itself (sharded latches, leaves like mu_; the
  /// two are never held together).
  BufferPool pool_;
};

inline void PageGuard::Release() {
  if (pager_ != nullptr) {
    pager_->UnpinPage(page_);
    pager_ = nullptr;
  }
}

/// \brief RAII probe: captures the access delta over a scope.
class AccessProbe {
 public:
  explicit AccessProbe(const Pager& pager)
      : pager_(pager), start_(pager.stats()) {}

  AccessStats Delta() const { return pager_.stats() - start_; }

 private:
  const Pager& pager_;
  AccessStats start_;
};

/// \brief RAII scoped accounting frame: the accesses inside the scope are
/// tallied on the pager under (\p kind, \p label) when the frame closes.
///
/// With \p exclude set, the frame's accesses are redirected into the probe
/// (bypassing the buffer pool) instead of the pager's main stats: the
/// traffic is measured — Delta(), and the kBuild tally — but not charged to
/// whatever experiment is running. This is how index construction is routed
/// through the pager without becoming part of a replay's measured pages;
/// its price enters experiments through the transition accounting instead.
///
/// Frames are per-thread: each probe pushes an AccessFrame onto the calling
/// thread's stack and captures only that thread's traffic, accumulated
/// lock-free and folded into the pager's globals once at close. Frames may
/// nest per thread, but every frame folds its own delta into the tallies
/// when it closes — so the "kind tallies decompose stats()" invariant holds
/// only while *counting* frames do not nest on one thread (SimDatabase
/// opens exactly one per operation and closes it before observers run,
/// which guarantees this). Excluded frames nest freely (LIFO per thread):
/// a counting frame inside an excluded one observes no traffic, since its
/// thread's touches all land on the enclosing excluded frame by design.
/// Destruction must happen on the constructing thread (RAII makes this
/// automatic).
class ScopedAccessProbe {
 public:
  explicit ScopedAccessProbe(Pager* pager, PageOpKind kind,
                             std::string label = {}, bool exclude = false);
  ~ScopedAccessProbe();

  ScopedAccessProbe(const ScopedAccessProbe&) = delete;
  ScopedAccessProbe& operator=(const ScopedAccessProbe&) = delete;

  /// The accesses observed by this frame so far (this thread's traffic
  /// only; thread-private, so the read is race-free even mid-scope).
  AccessStats Delta() const { return frame_.local; }

 private:
  Pager* pager_;
  PageOpKind kind_;
  std::string label_;
  AccessFrame frame_;
};

}  // namespace pathix
