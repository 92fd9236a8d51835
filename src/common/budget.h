#ifndef KELPIE_COMMON_BUDGET_H_
#define KELPIE_COMMON_BUDGET_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <string_view>

#include "common/status.h"

namespace kelpie {

/// -----------------------------------------------------------------------
/// Cooperative budgets, deadlines and cancellation.
///
/// Explanation extraction is the system's most expensive operation — every
/// candidate costs at least one post-training — so every long-running path
/// must be boundable and interruptible. Three orthogonal mechanisms:
///
///  - `WorkBudget` meters *deterministic work units* (non-homologous
///    post-trainings). Decisions driven by the budget happen at candidate
///    boundaries in the sequential replay of the Explanation Builder, so a
///    budgeted run returns bitwise-identical results on any machine and any
///    thread count.
///  - `Deadline` is a steady-clock wall-time overlay. Inherently
///    non-deterministic; use it to bound latency, not to reproduce results.
///  - `CancelToken` is a cooperative cancellation flag checkable from any
///    thread; the CLI wires it to SIGINT/SIGTERM.
///
/// `ExtractionControl` bundles the three for plumbing through the stack. A
/// default-constructed control imposes no limits; code paths handed one
/// behave exactly as before this layer existed.
/// -----------------------------------------------------------------------

/// How far an extraction got before it returned. Anything but `kComplete`
/// means the result is the best explanation found so far, not necessarily
/// the one an unbounded search would return.
enum class Completeness : uint8_t {
  /// The search ran to its natural end (acceptance or exhaustion).
  kComplete = 0,
  /// The work-unit budget ran out; deterministic given the same budget.
  kTruncatedBudget = 1,
  /// The deadline expired (wall clock; not reproducible).
  kTruncatedDeadline = 2,
  /// Cancellation was requested (Ctrl-C or a caller's token).
  kCancelled = 3,
};

/// Stable human-readable name ("Complete", "TruncatedBudget", ...).
std::string_view CompletenessName(Completeness completeness);

/// A meter of deterministic work units. Thread-safe; `TryCharge` either
/// charges the full amount or nothing, so concurrent chargers can never
/// overdraw. One unit = one non-homologous post-training: a necessary
/// candidate costs 1, a sufficient candidate costs its conversion-set size.
/// Homologous baselines are computed once per extraction and are not
/// charged.
class WorkBudget {
 public:
  static constexpr uint64_t kUnlimited =
      std::numeric_limits<uint64_t>::max();

  explicit WorkBudget(uint64_t limit = kUnlimited) : limit_(limit) {}

  /// Reinitializes the meter with a new limit and zero usage. Setup only —
  /// not safe to call concurrently with TryCharge.
  void Reset(uint64_t limit) {
    limit_ = limit;
    used_.store(0, std::memory_order_relaxed);
  }

  bool unlimited() const { return limit_ == kUnlimited; }
  uint64_t limit() const { return limit_; }
  uint64_t used() const { return used_.load(std::memory_order_relaxed); }
  uint64_t remaining() const {
    if (unlimited()) return kUnlimited;
    const uint64_t u = used();
    return u >= limit_ ? 0 : limit_ - u;
  }

  /// Charges `units` if the full amount fits the remaining budget; returns
  /// false (charging nothing) otherwise.
  bool TryCharge(uint64_t units) {
    if (unlimited()) return true;
    uint64_t u = used_.load(std::memory_order_relaxed);
    while (true) {
      if (units > limit_ - u) return false;
      if (used_.compare_exchange_weak(u, u + units,
                                      std::memory_order_relaxed)) {
        return true;
      }
    }
  }

 private:
  uint64_t limit_;
  std::atomic<uint64_t> used_{0};
};

/// A point on the steady clock after which work should stop. Infinite by
/// default. Never uses the system clock: wall-time adjustments (NTP steps,
/// suspend/resume quirks) must not fire or un-fire a deadline.
class Deadline {
  using Clock = std::chrono::steady_clock;
  static_assert(Clock::is_steady,
                "deadlines must be immune to system-clock adjustments");

 public:
  /// An infinite deadline (never expires).
  Deadline() : at_(Clock::time_point::max()) {}

  static Deadline Infinite() { return Deadline(); }

  /// Expires `seconds` from now; non-positive values are already expired.
  static Deadline After(double seconds);

  /// The earlier of two deadlines (used to overlay a per-prediction timeout
  /// on a run-level deadline).
  static Deadline Earliest(const Deadline& a, const Deadline& b) {
    return a.at_ <= b.at_ ? a : b;
  }

  bool infinite() const { return at_ == Clock::time_point::max(); }
  bool Expired() const { return !infinite() && Clock::now() >= at_; }

  /// Seconds until expiry; +infinity when infinite, <= 0 when expired.
  double RemainingSeconds() const;

 private:
  explicit Deadline(Clock::time_point at) : at_(at) {}

  Clock::time_point at_;
};

/// A copyable handle to a shared cancellation flag. Copies observe the same
/// flag; `RequestCancel` is sticky (there is no reset — make a new token for
/// a new operation). Safe to read and set from any thread.
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void RequestCancel() const { flag_->store(true, std::memory_order_release); }
  bool cancelled() const { return flag_->load(std::memory_order_acquire); }

 private:
  friend void WireCancelToSignals(const CancelToken& token);

  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Installs SIGINT/SIGTERM handlers that request cancellation on `token`.
/// The first signal sets the flag and lets the run drain cooperatively
/// (journal tails flush, best-so-far results return); a second signal exits
/// immediately with status 130, the conventional fatal-SIGINT code. Only one
/// token can be wired at a time; wiring again rebinds the handlers.
void WireCancelToSignals(const CancelToken& token);

/// The bundle threaded through the extraction stack. Non-owning: the budget
/// lives with whoever created the control (the Kelpie facade allocates one
/// per prediction). Default-constructed = no limits.
struct ExtractionControl {
  /// Deterministic work-unit meter; nullptr = unlimited.
  WorkBudget* budget = nullptr;
  Deadline deadline;
  CancelToken cancel;

  /// Non-deterministic interrupts only (cancellation, then deadline) — the
  /// budget is deliberately excluded: budget decisions are made at
  /// deterministic candidate boundaries, never from racing checks.
  Status CheckInterrupt() const {
    if (cancel.cancelled()) {
      return Status::Cancelled("cancellation requested");
    }
    if (deadline.Expired()) {
      return Status::DeadlineExceeded("deadline expired");
    }
    return Status::Ok();
  }

  uint64_t BudgetRemaining() const {
    return budget == nullptr ? WorkBudget::kUnlimited : budget->remaining();
  }

  /// Charges the budget if present; a control without a budget accepts any
  /// charge.
  bool TryCharge(uint64_t units) const {
    return budget == nullptr || budget->TryCharge(units);
  }
};

/// Maps an interrupt status (from ExtractionControl::CheckInterrupt) to the
/// completeness it implies; `kOk` maps to `kComplete`.
Completeness CompletenessFromStatus(const Status& status);

}  // namespace kelpie

#endif  // KELPIE_COMMON_BUDGET_H_
