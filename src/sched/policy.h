// Declarative scheduling-policy space (Halide-style algorithm/schedule
// split).
//
// A scheduler is a PolicySpec — a composition of orthogonal primitives,
// one per layer of the split framework (§3, §4.2):
//
//   tag       how the memory (buffer-dirty / buffer-free) hooks react to
//             cause tags;
//   dispatch  the block-level discipline;
//   key       what a fair-queuing queue is keyed by;
//   budget    admission accounting at the system-call layer;
//   writeback how dirty data reaches the device.
//
// The spec is the scheduler's one identity. Every named scheduler is a row
// of one registry (policy.cc): the eight canonical schedulers the paper
// compares, indexed by SchedKind, then the hybrids. ComposedScheduler
// (composed.h) interprets a spec, MakeSched (src/core/sched_factory.h)
// builds one, and tools/sched_search searches the space.
//
// This header also owns the per-primitive config structs; it depends only
// on src/sim/time.h so every layer can include it.
#ifndef SRC_SCHED_POLICY_H_
#define SRC_SCHED_POLICY_H_

#include <cstdint>
#include <span>
#include <string>

#include "src/sim/time.h"

namespace splitio {

class Rng;

namespace jsonmini {
struct Cursor;
struct ParseError;
}  // namespace jsonmini

// ---------------------------------------------------------------------------
// Per-primitive configs.
// ---------------------------------------------------------------------------

// Stride fair-queuing knobs (AFQ, §5.1).
struct AfqConfig {
  // How far (in charged cost units = normalized bytes) a process's pass may
  // run ahead of the minimum before its write-path syscalls are delayed.
  // Charging happens ONLY at block-request dispatch/completion (the paper's
  // design): a workload that causes no device I/O is never throttled.
  double pass_slack = 4.0 * 1024 * 1024;
  Nanos idle_window = Msec(2);  // read anticipation
  // Keep serving the same reader while its pass is within this much of the
  // minimum (slice stickiness — preserves sequential locality like CFQ's
  // time slices).
  double read_stickiness = 2.0 * 1024 * 1024;

  bool operator==(const AfqConfig&) const = default;
};

// Fsync-deadline discipline knobs (Split-Deadline, §5.2).
struct SplitDeadlineConfig {
  Nanos default_read_deadline = Msec(100);
  Nanos default_fsync_deadline = Msec(500);
  // Issue an fsync directly only when flushing the file's remaining dirty
  // data is estimated to occupy the device for at most this long; otherwise
  // spread the cost via async writeback first. A cost (not byte) threshold:
  // scattered dirty pages are far more expensive than their byte count
  // suggests.
  Nanos fsync_direct_cost = Msec(25);
  // Scheduler-owned writeback (requires cache writeback_daemon = false).
  bool own_writeback = false;
  Nanos own_writeback_period = Msec(25);
  uint64_t own_writeback_batch_pages = 512;
  // Split-Pdflush mode: throttle write syscalls once dirty data exceeds
  // the cache's background-writeback limit by this margin — pdflush still
  // runs, but the ammunition it can dump at once is bounded.
  uint64_t pdflush_dirty_margin_bytes = 32ULL << 20;
  int fifo_batch = 16;
  int writes_starved = 2;

  bool operator==(const SplitDeadlineConfig&) const = default;
};

// Split-level token accounting knobs (Split-Token, §5.3).
struct SplitTokenConfig {
  Nanos refill_period = Msec(10);
  // Burst capacity as seconds of rate.
  double burst_seconds = 0.5;
  // Normalized cost (bytes) of one seek-equivalent, preliminary model. The
  // block-level model replaces this with measured service time.
  double seek_equivalent_bytes = 512.0 * 1024;
  // Disable the block-level revision pass (for the ablation bench).
  bool revise_at_block_level = true;

  bool operator==(const SplitTokenConfig&) const = default;
};

// Syscall-byte token accounting knobs (SCS baseline, §2.3.3).
struct ScsTokenConfig {
  Nanos refill_period = Msec(10);
  double burst_seconds = 0.5;
  double fsync_cost = 4096;  // flat charge per fsync call
  // The paper notes Craciunas et al. had to modify the file system to tell
  // SCS which reads are cache hits [19]; with the modification, hits are
  // not charged (but the SCS logic still runs on every call — that cost is
  // modeled by per_call_cpu). Set false for the unmodified variant.
  bool cache_hit_exemption = true;
  Nanos per_call_cpu = Usec(2);

  bool operator==(const ScsTokenConfig&) const = default;
};

// Legacy block-deadline elevator knobs (src/block/block_deadline.h).
struct BlockDeadlineConfig {
  Nanos read_expiry = Msec(500);
  Nanos write_expiry = Sec(5);
  int fifo_batch = 16;
  int writes_starved = 2;

  bool operator==(const BlockDeadlineConfig&) const = default;
};

// Legacy CFQ elevator knobs (src/block/cfq.h).
struct CfqConfig {
  Nanos base_slice = Msec(20);   // device time per weight unit
  Nanos idle_window = Msec(2);   // anticipation window for sync readers

  bool operator==(const CfqConfig&) const = default;
};

// ---------------------------------------------------------------------------
// The policy axes.
// ---------------------------------------------------------------------------

// What the memory (buffer-dirty / buffer-free) hooks do with cause tags.
enum class TagRule {
  // Hooks ignored. Pros: no per-page work. Cons: the scheduler learns about
  // a write only when its block request arrives, after the file system has
  // entangled it (block-only policies, SCS, split-deadline).
  kNone,
  // Hooks counted but otherwise inert. Pros: measures the framework's own
  // hook overhead (split-noop, Figure 9). Cons: schedules nothing.
  kCount,
  // Preliminary cost charged to the page's causes when it is dirtied,
  // revised at block completion. Pros: delegated writeback and journal I/O
  // are billed to the processes that caused them (§4.2). Cons: needs a
  // stride-pass or hier-tokens ledger to charge into; per-page work on
  // every dirtying.
  kCauses,
};

// Block-level dispatch discipline.
enum class DispatchKind {
  // Legacy single-queue elevators: the block-only baselines of §2. Pros:
  // the stock Linux behaviour to compare against. Cons: see only block
  // requests, so they cannot tell who caused a write; they carry no
  // split-level axis.
  kLegacyNoop,      // pass-through
  kLegacyCfq,       // CFQ time slices with priorities and anticipation
  kLegacyDeadline,  // block-request read/write expiry
  // mq-aware pass-through. Pros: no reordering cost, fans out over blk-mq
  // contexts. Cons: no fairness or latency control at the block level.
  kFifo,
  // Per-key read queues served by minimum stride pass, writes FIFO (AFQ,
  // §5.1). Pros: proportional sharing of reads below the cache. Cons: read
  // anticipation idles the device; writes are shared only via the budget.
  kStride,
  // Read deadlines, urgent fsync writes and sorted batches (Split-Deadline,
  // §5.2). Pros: bounds read and fsync latency. Cons: the only discipline
  // that can own writeback, so it is tied to the writeback axis.
  kDeadline,
};

// What a fair-queuing queue (and its pass) is keyed by.
enum class QueueKey {
  // Per process (AFQ). Pros: the paper's fairness unit. Cons: a tenant
  // that forks many processes gets many shares.
  kPid,
  // Per token account, i.e. per tenant (tenant-afq). Pros: fairness between
  // tenants regardless of their process count. Cons: requires stride
  // dispatch; processes of one account share one queue.
  kAccount,
};

// Admission accounting at the system-call layer.
enum class BudgetKind {
  // No admission control. Pros: free. Cons: write-path syscalls are never
  // delayed, so a heavy writer entangles every journal commit.
  kNone,
  // Sleep write-path syscalls while the caller's stride pass runs ahead of
  // the floor (AFQ). Pros: shares writes before the file system sees them.
  // Cons: needs stride dispatch, which alone advances the pass.
  kStridePass,
  // Split-level accounting into hierarchical token buckets (Split-Token,
  // §5.3). Pros: charges what reaches the device (cache hits free, journal
  // amplification billed), with per-group budgets. Cons: preliminary
  // charges are estimates until block completion revises them.
  kHierTokens,
  // Raw syscall-byte tokens at entry (the SCS baseline, §2.3.3). Pros:
  // simple and prompt. Cons: under-charges random I/O and over-charges
  // cached I/O (Figures 6 and 14).
  kSyscallTokens,
};

// How dirty data reaches the device.
enum class WritebackKind {
  // The kernel writeback daemon, untouched. Pros: stock behaviour. Cons:
  // the daemon may dump a large batch of dirty data at any moment.
  kDaemon,
  // Daemon on, write syscalls throttled at a dirty margin (Split-Pdflush).
  // Pros: bounds the batch the daemon can dump. Cons: still no control of
  // when it runs; needs deadline dispatch.
  kPdflushCapped,
  // Daemon off, the scheduler flushes when no deadline is at risk (the
  // paper's recommended Split-Deadline mode, §7.1.2). Pros: writeback never
  // competes with a deadline. Cons: the cache's writeback daemon must be
  // disabled; needs deadline dispatch.
  kSchedOwned,
};

// A scheduler, declaratively. All config sub-structs are always present
// (axes that do not use them ignore them), which keeps serialization
// total and round-trips byte-identical.
struct PolicySpec {
  std::string name;
  TagRule tag = TagRule::kNone;
  DispatchKind dispatch = DispatchKind::kFifo;
  QueueKey key = QueueKey::kPid;
  BudgetKind budget = BudgetKind::kNone;
  WritebackKind writeback = WritebackKind::kDaemon;

  AfqConfig stride;
  SplitDeadlineConfig deadline;
  SplitTokenConfig token;
  ScsTokenConfig scs;
  BlockDeadlineConfig legacy_deadline;
  CfqConfig legacy_cfq;

  bool operator==(const PolicySpec&) const = default;
};

// ---------------------------------------------------------------------------
// The registry.
// ---------------------------------------------------------------------------

// The eight canonical schedulers the experiments compare, as indices into
// the registry's canonical prefix.
enum class SchedKind {
  kNoop,
  kCfq,
  kBlockDeadline,
  kSplitNoop,
  kAfq,
  kSplitDeadline,
  kSplitToken,
  kScsToken,
};

inline constexpr SchedKind kAllSchedKinds[] = {
    SchedKind::kNoop,          SchedKind::kCfq,
    SchedKind::kBlockDeadline, SchedKind::kSplitNoop,
    SchedKind::kAfq,           SchedKind::kSplitDeadline,
    SchedKind::kSplitToken,    SchedKind::kScsToken,
};

// Every registered name: the canonical schedulers first, in SchedKind
// order, then the hybrids.
std::span<const char* const> AllPolicySpecNames();

const char* SchedName(SchedKind kind);

// Parses a canonical SchedName() string. Returns false (leaving *out
// untouched) for any other name, hybrids included.
bool SchedKindFromName(const char* name, SchedKind* out);

// The registered spec of a canonical scheduler, with default configs.
PolicySpec SpecForKind(SchedKind kind);

// Builds the registered spec with this name (canonical or hybrid), with
// default configs. Returns false for unknown names.
bool NamedPolicySpec(const std::string& name, PolicySpec* out);

// The shared unknown-scheduler diagnostic: names the offending token and
// lists the accepted names — every registered name, or only the canonical
// ones for inputs that take a SchedKind.
std::string UnknownSchedMessage(const std::string& token,
                                bool kinds_only = false);

// ---------------------------------------------------------------------------
// Canonical spec builders: the registered spec with the given config.
// ---------------------------------------------------------------------------

// The legacy block-only elevators (§2): block-noop, CFQ and block-deadline
// see block requests only, after the file system has entangled them.
PolicySpec BlockNoopSpec();
PolicySpec CfqSpec(const CfqConfig& config = CfqConfig());
PolicySpec BlockDeadlineSpec(
    const BlockDeadlineConfig& config = BlockDeadlineConfig());

// Split-noop: attaches every hook but schedules nothing — all I/O
// dispatched FIFO, the memory hooks counted (ComposedScheduler::
// dirty_events) but otherwise ignored. Measures the framework's own
// overhead (Figure 9) against the no-op block elevator.
PolicySpec SplitNoopSpec();

// AFQ — Actually Fair Queuing (§5.1), a two-level stride scheduler:
//  - reads are scheduled at the block level (below the cache, so hits stay
//    free) from per-process queues, picked by minimum stride pass, with
//    CFQ-style anticipation for synchronous readers;
//  - writes and the calls that cause writes (fsync, creat, mkdir) are
//    scheduled at the system-call level, before the file system entangles
//    them in a journal transaction: a process whose pass runs ahead of its
//    peers sleeps in the entry hook;
//  - block-level writes are dispatched immediately, because below the
//    journal a low-priority block may be a prerequisite of a high-priority
//    fsync.
// Each dispatched request's estimated device cost (seek model) is charged
// to the processes in its cause tag, so delegated writeback and journal
// I/O are billed correctly.
PolicySpec AfqSpec(const AfqConfig& config = AfqConfig());

// Split-Deadline (§5.2): deadlines attach to fsync calls instead of block
// writes. Built on the block-deadline structure, with three changes:
//  - the block-write deadline queue becomes an fsync-deadline queue at the
//    system-call level: concurrent fsyncs are admitted in deadline order;
//  - before a costly fsync (estimated from the buffer-dirty hook's count of
//    the file's dirty data) the scheduler starts asynchronous writeback of
//    the file and waits for the dirty amount to drop, so the journal commit
//    is cheap and other deadlines are unaffected;
//  - with config.own_writeback the scheduler owns writeback (the paper's
//    recommended mode, §7.1.2): the daemon is off and the scheduler
//    flushes only when no deadline is at risk. With the daemon left on
//    (Split-Pdflush), write syscalls are throttled at a dirty margin.
// The writeback axis follows config.own_writeback.
PolicySpec SplitDeadlineSpec(
    const SplitDeadlineConfig& config = SplitDeadlineConfig());

// Split-Token (§5.3): token buckets over split-level accounting. Tokens
// are normalized bytes — the cost of an I/O pattern as the equivalent
// amount of sequential I/O. Accounting happens twice:
//  - promptly, at the buffer-dirty hook, by a preliminary model based on
//    the randomness of offsets within the file;
//  - accurately, at block completion, where the real locations,
//    amplification (journal writes) and achieved sequentiality are known;
//    the preliminary charge is revised (extra charge or refund).
// While an account's balance is negative, its write-path system calls
// (write, fsync, creat, mkdir) are throttled before the file system
// entangles them, and its block-level reads below the cache, so cache hits
// are never taxed. Block-level writes (ordering) and system-call reads
// (cache) are never throttled.
PolicySpec SplitTokenSpec(const SplitTokenConfig& config = SplitTokenConfig());

// SCS-Token: the system-call-scheduling token bucket of Craciunas et al.
// [18, 19], the paper's baseline (§2.3.3). Every read and write call is
// charged its byte count at entry and blocks while the balance is
// negative; the framework cannot tell cache hits from misses, overwrites
// of buffered data from new writes, or sequential from random I/O. The
// block level is a pass-through FIFO and the memory hooks are unused.
// Reproduced consequences: random I/O is under-charged (isolation failure,
// Figure 6) and in-memory I/O over-charged (837x slowdown for write-mem,
// Figure 14).
PolicySpec ScsTokenSpec(const ScsTokenConfig& config = ScsTokenConfig());

// Structural validity: inter-axis constraints a ComposedScheduler (or a
// legacy elevator) can actually interpret. Empty string when valid, else a
// human-readable reason.
std::string ValidateSpec(const PolicySpec& spec);

// ---------------------------------------------------------------------------
// Serialization (json_mini dialect; used by stress repros and sched_search).
// Serialize(Parse(s)) is byte-identical to s for anything Serialize emits.
// ---------------------------------------------------------------------------

std::string PolicySpecToJson(const PolicySpec& spec);

// Parses a spec object at the cursor (for embedding in larger documents).
// On failure the cursor records the offending token and its byte offset —
// the same contract as the trace parsers; unknown axis values never fall
// back silently.
bool ParsePolicySpec(jsonmini::Cursor& c, PolicySpec* out);

// Whole-string convenience wrapper.
bool PolicySpecFromJson(const std::string& json, PolicySpec* out,
                        jsonmini::ParseError* error = nullptr);

// A structurally valid pseudo-random spec (stress differential axis and
// sched_search sampling). Deterministic in the rng stream; the name encodes
// the drawn axes ("x-<dispatch>-<budget>[-a][-o|-c]").
PolicySpec RandomPolicySpec(Rng& rng);

}  // namespace splitio

#endif  // SRC_SCHED_POLICY_H_
