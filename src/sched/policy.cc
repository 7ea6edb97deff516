#include "src/sched/policy.h"

#include <array>
#include <cstdio>
#include <cstring>

#include "src/sim/random.h"
#include "src/workload/json_mini.h"

namespace splitio {

namespace {

using jsonmini::Consume;
using jsonmini::Cursor;
using jsonmini::ParseBool;
using jsonmini::ParseDouble;
using jsonmini::ParseInt;
using jsonmini::ParseString;
using jsonmini::ParseUint;
using jsonmini::Peek;
using jsonmini::SkipValue;
using jsonmini::SkipWs;

constexpr const char* kTagNames[] = {"none", "count", "causes"};
constexpr const char* kDispatchNames[] = {"legacy-noop",     "legacy-cfq",
                                          "legacy-deadline", "fifo",
                                          "stride",          "deadline"};
constexpr const char* kKeyNames[] = {"pid", "account"};
constexpr const char* kBudgetNames[] = {"none", "stride-pass", "hier-tokens",
                                        "syscall-tokens"};
constexpr const char* kWritebackNames[] = {"daemon", "pdflush-capped",
                                           "sched-owned"};

// %.17g prints the shortest-or-exact decimal that strtod maps back to the
// same double, so Serialize(Parse(x)) stays byte-identical.
std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Int(int64_t v) { return std::to_string(v); }
std::string Uint(uint64_t v) { return std::to_string(v); }
const char* Bool(bool v) { return v ? "true" : "false"; }

bool IsLegacy(DispatchKind d) {
  return d == DispatchKind::kLegacyNoop || d == DispatchKind::kLegacyCfq ||
         d == DispatchKind::kLegacyDeadline;
}

// Parses a quoted axis value against a name table; an unknown value records
// the offending token with its byte offset (no silent fallback).
template <int N>
bool ParseAxis(Cursor& c, const char* axis, const char* const (&names)[N],
               int* out) {
  SkipWs(c);
  size_t token_offset = c.Offset();
  std::string value;
  if (!ParseString(c, &value)) {
    return false;
  }
  for (int i = 0; i < N; ++i) {
    if (value == names[i]) {
      *out = i;
      return true;
    }
  }
  return c.FailAt(token_offset,
                  std::string("unknown ") + axis + " \"" + value + "\"");
}

// Generic flat-object parser: `fields` maps key -> value parser; unknown
// keys are skipped so the format can grow.
template <typename FieldFn>
bool ParseObject(Cursor& c, FieldFn&& field) {
  if (!Consume(c, '{')) {
    return c.Fail("expected object");
  }
  if (Consume(c, '}')) {
    return true;
  }
  for (;;) {
    std::string key;
    if (!ParseString(c, &key) || !Consume(c, ':')) {
      return c.Fail("expected key");
    }
    if (!field(key)) {
      return false;
    }
    if (Consume(c, '}')) {
      return true;
    }
    if (!Consume(c, ',')) {
      return c.Fail("expected ',' or '}'");
    }
  }
}

bool ParseNanos(Cursor& c, Nanos* out) {
  int64_t v = 0;
  if (!ParseInt(c, &v)) {
    return false;
  }
  *out = static_cast<Nanos>(v);
  return true;
}

bool ParseIntField(Cursor& c, int* out) {
  int64_t v = 0;
  if (!ParseInt(c, &v)) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

// The registry: every named scheduler and the axes of its spec (configs
// default). The canonical schedulers come first, in SchedKind order; the
// hybrids after them combine axes no canonical scheduler does —
// fsync-deadline dispatch over hierarchical token budgets, and stride fair
// queuing between tenant accounts instead of processes.
struct Registered {
  const char* name;
  TagRule tag;
  DispatchKind dispatch;
  QueueKey key;
  BudgetKind budget;
  WritebackKind writeback;
};

constexpr Registered kRegistry[] = {
    {"block-noop", TagRule::kNone, DispatchKind::kLegacyNoop, QueueKey::kPid,
     BudgetKind::kNone, WritebackKind::kDaemon},
    {"cfq", TagRule::kNone, DispatchKind::kLegacyCfq, QueueKey::kPid,
     BudgetKind::kNone, WritebackKind::kDaemon},
    {"block-deadline", TagRule::kNone, DispatchKind::kLegacyDeadline,
     QueueKey::kPid, BudgetKind::kNone, WritebackKind::kDaemon},
    {"split-noop", TagRule::kCount, DispatchKind::kFifo, QueueKey::kPid,
     BudgetKind::kNone, WritebackKind::kDaemon},
    {"afq", TagRule::kCauses, DispatchKind::kStride, QueueKey::kPid,
     BudgetKind::kStridePass, WritebackKind::kDaemon},
    {"split-deadline", TagRule::kNone, DispatchKind::kDeadline, QueueKey::kPid,
     BudgetKind::kNone, WritebackKind::kPdflushCapped},
    {"split-token", TagRule::kCauses, DispatchKind::kFifo, QueueKey::kPid,
     BudgetKind::kHierTokens, WritebackKind::kDaemon},
    {"scs-token", TagRule::kNone, DispatchKind::kFifo, QueueKey::kPid,
     BudgetKind::kSyscallTokens, WritebackKind::kDaemon},
    {"deadline-token", TagRule::kCauses, DispatchKind::kDeadline,
     QueueKey::kPid, BudgetKind::kHierTokens, WritebackKind::kPdflushCapped},
    {"tenant-afq", TagRule::kCauses, DispatchKind::kStride, QueueKey::kAccount,
     BudgetKind::kStridePass, WritebackKind::kDaemon},
};

constexpr auto kRegistryNames = [] {
  std::array<const char*, std::size(kRegistry)> names{};
  for (size_t i = 0; i < names.size(); ++i) {
    names[i] = kRegistry[i].name;
  }
  return names;
}();

PolicySpec RegisteredSpec(size_t row) {
  const Registered& r = kRegistry[row];
  PolicySpec spec;
  spec.name = r.name;
  spec.tag = r.tag;
  spec.dispatch = r.dispatch;
  spec.key = r.key;
  spec.budget = r.budget;
  spec.writeback = r.writeback;
  return spec;
}

}  // namespace

// ---------------------------------------------------------------------------
// Registry lookups and builders.
// ---------------------------------------------------------------------------

std::span<const char* const> AllPolicySpecNames() { return kRegistryNames; }

const char* SchedName(SchedKind kind) {
  return kRegistry[static_cast<size_t>(kind)].name;
}

bool SchedKindFromName(const char* name, SchedKind* out) {
  for (SchedKind kind : kAllSchedKinds) {
    if (std::strcmp(name, SchedName(kind)) == 0) {
      *out = kind;
      return true;
    }
  }
  return false;
}

PolicySpec SpecForKind(SchedKind kind) {
  return RegisteredSpec(static_cast<size_t>(kind));
}

bool NamedPolicySpec(const std::string& name, PolicySpec* out) {
  for (size_t row = 0; row < std::size(kRegistry); ++row) {
    if (name == kRegistry[row].name) {
      *out = RegisteredSpec(row);
      return true;
    }
  }
  return false;
}

std::string UnknownSchedMessage(const std::string& token, bool kinds_only) {
  std::span<const char* const> names = AllPolicySpecNames();
  if (kinds_only) {
    names = names.first(std::size(kAllSchedKinds));
  }
  std::string msg = "unknown scheduler \"" + token + "\" (expected one of";
  for (const char* name : names) {
    msg += ' ';
    msg += name;
  }
  msg += ')';
  return msg;
}

PolicySpec BlockNoopSpec() { return SpecForKind(SchedKind::kNoop); }

PolicySpec CfqSpec(const CfqConfig& config) {
  PolicySpec spec = SpecForKind(SchedKind::kCfq);
  spec.legacy_cfq = config;
  return spec;
}

PolicySpec BlockDeadlineSpec(const BlockDeadlineConfig& config) {
  PolicySpec spec = SpecForKind(SchedKind::kBlockDeadline);
  spec.legacy_deadline = config;
  return spec;
}

PolicySpec SplitNoopSpec() { return SpecForKind(SchedKind::kSplitNoop); }

PolicySpec AfqSpec(const AfqConfig& config) {
  PolicySpec spec = SpecForKind(SchedKind::kAfq);
  spec.stride = config;
  return spec;
}

PolicySpec SplitDeadlineSpec(const SplitDeadlineConfig& config) {
  PolicySpec spec = SpecForKind(SchedKind::kSplitDeadline);
  if (config.own_writeback) {
    spec.writeback = WritebackKind::kSchedOwned;
  }
  spec.deadline = config;
  return spec;
}

PolicySpec SplitTokenSpec(const SplitTokenConfig& config) {
  PolicySpec spec = SpecForKind(SchedKind::kSplitToken);
  spec.token = config;
  return spec;
}

PolicySpec ScsTokenSpec(const ScsTokenConfig& config) {
  PolicySpec spec = SpecForKind(SchedKind::kScsToken);
  spec.scs = config;
  return spec;
}

std::string ValidateSpec(const PolicySpec& spec) {
  if (spec.name.empty()) {
    return "spec name is empty";
  }
  if (IsLegacy(spec.dispatch)) {
    if (spec.tag != TagRule::kNone || spec.budget != BudgetKind::kNone ||
        spec.writeback != WritebackKind::kDaemon ||
        spec.key != QueueKey::kPid) {
      return "legacy dispatch cannot carry split-level axes";
    }
    return "";
  }
  if (spec.budget == BudgetKind::kStridePass &&
      spec.dispatch != DispatchKind::kStride) {
    return "stride-pass budget requires stride dispatch (the pass floor "
           "advances only via stride dispatch charging)";
  }
  if (spec.key == QueueKey::kAccount &&
      spec.dispatch != DispatchKind::kStride) {
    return "account queue key requires stride dispatch";
  }
  if (spec.writeback != WritebackKind::kDaemon &&
      spec.dispatch != DispatchKind::kDeadline) {
    return "non-daemon writeback requires deadline dispatch (the deadline "
           "engine owns the writeback triggers)";
  }
  if (spec.tag == TagRule::kCauses && spec.budget != BudgetKind::kStridePass &&
      spec.budget != BudgetKind::kHierTokens) {
    return "cause-charging tag rule needs a stride-pass or hier-tokens "
           "budget ledger to charge into";
  }
  if (spec.dispatch == DispatchKind::kDeadline &&
      spec.deadline.own_writeback !=
          (spec.writeback == WritebackKind::kSchedOwned)) {
    return "deadline.own_wb inconsistent with the writeback axis";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Serialization.
// ---------------------------------------------------------------------------

std::string PolicySpecToJson(const PolicySpec& spec) {
  std::string out = "{";
  out += "\"name\":\"" + jsonmini::Escape(spec.name) + "\"";
  out += ",\"tag\":\"" + std::string(kTagNames[static_cast<int>(spec.tag)]) +
         "\"";
  out += ",\"dispatch\":\"" +
         std::string(kDispatchNames[static_cast<int>(spec.dispatch)]) + "\"";
  out += ",\"key\":\"" + std::string(kKeyNames[static_cast<int>(spec.key)]) +
         "\"";
  out += ",\"budget\":\"" +
         std::string(kBudgetNames[static_cast<int>(spec.budget)]) + "\"";
  out += ",\"wb\":\"" +
         std::string(kWritebackNames[static_cast<int>(spec.writeback)]) + "\"";
  out += ",\"stride\":{\"pass_slack\":" + Num(spec.stride.pass_slack) +
         ",\"idle_window\":" + Int(spec.stride.idle_window) +
         ",\"read_stickiness\":" + Num(spec.stride.read_stickiness) + "}";
  out += ",\"deadline\":{\"read_ddl\":" + Int(spec.deadline.default_read_deadline) +
         ",\"fsync_ddl\":" + Int(spec.deadline.default_fsync_deadline) +
         ",\"direct_cost\":" + Int(spec.deadline.fsync_direct_cost) +
         ",\"own_wb\":" + Bool(spec.deadline.own_writeback) +
         ",\"own_wb_period\":" + Int(spec.deadline.own_writeback_period) +
         ",\"own_wb_batch\":" + Uint(spec.deadline.own_writeback_batch_pages) +
         ",\"pdflush_margin\":" + Uint(spec.deadline.pdflush_dirty_margin_bytes) +
         ",\"fifo_batch\":" + Int(spec.deadline.fifo_batch) +
         ",\"writes_starved\":" + Int(spec.deadline.writes_starved) + "}";
  out += ",\"token\":{\"refill\":" + Int(spec.token.refill_period) +
         ",\"burst_s\":" + Num(spec.token.burst_seconds) +
         ",\"seek_bytes\":" + Num(spec.token.seek_equivalent_bytes) +
         ",\"revise\":" + Bool(spec.token.revise_at_block_level) + "}";
  out += ",\"scs\":{\"refill\":" + Int(spec.scs.refill_period) +
         ",\"burst_s\":" + Num(spec.scs.burst_seconds) +
         ",\"fsync_cost\":" + Num(spec.scs.fsync_cost) +
         ",\"hit_exempt\":" + Bool(spec.scs.cache_hit_exemption) +
         ",\"call_cpu\":" + Int(spec.scs.per_call_cpu) + "}";
  out += ",\"ldl\":{\"read_expiry\":" + Int(spec.legacy_deadline.read_expiry) +
         ",\"write_expiry\":" + Int(spec.legacy_deadline.write_expiry) +
         ",\"fifo_batch\":" + Int(spec.legacy_deadline.fifo_batch) +
         ",\"writes_starved\":" + Int(spec.legacy_deadline.writes_starved) +
         "}";
  out += ",\"lcfq\":{\"base_slice\":" + Int(spec.legacy_cfq.base_slice) +
         ",\"idle_window\":" + Int(spec.legacy_cfq.idle_window) + "}";
  out += "}";
  return out;
}

namespace {

bool ParseStrideConfig(Cursor& c, AfqConfig* out) {
  return ParseObject(c, [&](const std::string& key) {
    if (key == "pass_slack") return ParseDouble(c, &out->pass_slack);
    if (key == "idle_window") return ParseNanos(c, &out->idle_window);
    if (key == "read_stickiness") return ParseDouble(c, &out->read_stickiness);
    return SkipValue(c);
  });
}

bool ParseDeadlineConfig(Cursor& c, SplitDeadlineConfig* out) {
  return ParseObject(c, [&](const std::string& key) {
    if (key == "read_ddl") return ParseNanos(c, &out->default_read_deadline);
    if (key == "fsync_ddl") return ParseNanos(c, &out->default_fsync_deadline);
    if (key == "direct_cost") return ParseNanos(c, &out->fsync_direct_cost);
    if (key == "own_wb") return ParseBool(c, &out->own_writeback);
    if (key == "own_wb_period") {
      return ParseNanos(c, &out->own_writeback_period);
    }
    if (key == "own_wb_batch") {
      return ParseUint(c, &out->own_writeback_batch_pages);
    }
    if (key == "pdflush_margin") {
      return ParseUint(c, &out->pdflush_dirty_margin_bytes);
    }
    if (key == "fifo_batch") return ParseIntField(c, &out->fifo_batch);
    if (key == "writes_starved") return ParseIntField(c, &out->writes_starved);
    return SkipValue(c);
  });
}

bool ParseTokenConfig(Cursor& c, SplitTokenConfig* out) {
  return ParseObject(c, [&](const std::string& key) {
    if (key == "refill") return ParseNanos(c, &out->refill_period);
    if (key == "burst_s") return ParseDouble(c, &out->burst_seconds);
    if (key == "seek_bytes") return ParseDouble(c, &out->seek_equivalent_bytes);
    if (key == "revise") return ParseBool(c, &out->revise_at_block_level);
    return SkipValue(c);
  });
}

bool ParseScsConfig(Cursor& c, ScsTokenConfig* out) {
  return ParseObject(c, [&](const std::string& key) {
    if (key == "refill") return ParseNanos(c, &out->refill_period);
    if (key == "burst_s") return ParseDouble(c, &out->burst_seconds);
    if (key == "fsync_cost") return ParseDouble(c, &out->fsync_cost);
    if (key == "hit_exempt") return ParseBool(c, &out->cache_hit_exemption);
    if (key == "call_cpu") return ParseNanos(c, &out->per_call_cpu);
    return SkipValue(c);
  });
}

bool ParseLegacyDeadlineConfig(Cursor& c, BlockDeadlineConfig* out) {
  return ParseObject(c, [&](const std::string& key) {
    if (key == "read_expiry") return ParseNanos(c, &out->read_expiry);
    if (key == "write_expiry") return ParseNanos(c, &out->write_expiry);
    if (key == "fifo_batch") return ParseIntField(c, &out->fifo_batch);
    if (key == "writes_starved") return ParseIntField(c, &out->writes_starved);
    return SkipValue(c);
  });
}

bool ParseLegacyCfqConfig(Cursor& c, CfqConfig* out) {
  return ParseObject(c, [&](const std::string& key) {
    if (key == "base_slice") return ParseNanos(c, &out->base_slice);
    if (key == "idle_window") return ParseNanos(c, &out->idle_window);
    return SkipValue(c);
  });
}

}  // namespace

bool ParsePolicySpec(Cursor& c, PolicySpec* out) {
  SkipWs(c);
  size_t spec_offset = c.Offset();
  *out = PolicySpec();
  int axis = 0;
  bool ok = ParseObject(c, [&](const std::string& key) {
    if (key == "name") return ParseString(c, &out->name);
    if (key == "tag") {
      if (!ParseAxis(c, "tag", kTagNames, &axis)) return false;
      out->tag = static_cast<TagRule>(axis);
      return true;
    }
    if (key == "dispatch") {
      if (!ParseAxis(c, "dispatch", kDispatchNames, &axis)) return false;
      out->dispatch = static_cast<DispatchKind>(axis);
      return true;
    }
    if (key == "key") {
      if (!ParseAxis(c, "queue key", kKeyNames, &axis)) return false;
      out->key = static_cast<QueueKey>(axis);
      return true;
    }
    if (key == "budget") {
      if (!ParseAxis(c, "budget", kBudgetNames, &axis)) return false;
      out->budget = static_cast<BudgetKind>(axis);
      return true;
    }
    if (key == "wb") {
      if (!ParseAxis(c, "writeback", kWritebackNames, &axis)) return false;
      out->writeback = static_cast<WritebackKind>(axis);
      return true;
    }
    if (key == "stride") return ParseStrideConfig(c, &out->stride);
    if (key == "deadline") return ParseDeadlineConfig(c, &out->deadline);
    if (key == "token") return ParseTokenConfig(c, &out->token);
    if (key == "scs") return ParseScsConfig(c, &out->scs);
    if (key == "ldl") return ParseLegacyDeadlineConfig(c, &out->legacy_deadline);
    if (key == "lcfq") return ParseLegacyCfqConfig(c, &out->legacy_cfq);
    return SkipValue(c);
  });
  if (!ok) {
    return false;
  }
  // A parsed spec must be interpretable: structural problems are parse
  // errors (pointing at the spec), never a silent fallback.
  std::string invalid = ValidateSpec(*out);
  if (!invalid.empty()) {
    return c.FailAt(spec_offset, "invalid policy spec: " + invalid);
  }
  return true;
}

bool PolicySpecFromJson(const std::string& json, PolicySpec* out,
                        jsonmini::ParseError* error) {
  Cursor c(json);
  if (!ParsePolicySpec(c, out)) {
    c.ReportError(error, "bad policy spec");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Random sampling (stress differential axis / sched_search).
// ---------------------------------------------------------------------------

PolicySpec RandomPolicySpec(Rng& rng) {
  PolicySpec spec;
  // Draw order is part of the stress determinism contract: dispatch,
  // budget, key (stride only), writeback (deadline only), tag, then knobs.
  static constexpr DispatchKind kDispatchDraw[3] = {
      DispatchKind::kFifo, DispatchKind::kStride, DispatchKind::kDeadline};
  spec.dispatch = kDispatchDraw[rng.Below(3)];
  if (spec.dispatch == DispatchKind::kStride) {
    static constexpr BudgetKind kBudgetDraw[3] = {
        BudgetKind::kStridePass, BudgetKind::kNone, BudgetKind::kHierTokens};
    spec.budget = kBudgetDraw[rng.Below(3)];
    if (rng.Below(2) == 0) {
      spec.key = QueueKey::kAccount;
    }
  } else {
    static constexpr BudgetKind kBudgetDraw[3] = {
        BudgetKind::kNone, BudgetKind::kHierTokens, BudgetKind::kSyscallTokens};
    spec.budget = kBudgetDraw[rng.Below(3)];
  }
  if (spec.dispatch == DispatchKind::kDeadline) {
    static constexpr WritebackKind kWbDraw[3] = {WritebackKind::kPdflushCapped,
                                                 WritebackKind::kDaemon,
                                                 WritebackKind::kSchedOwned};
    spec.writeback = kWbDraw[rng.Below(3)];
    spec.deadline.own_writeback = spec.writeback == WritebackKind::kSchedOwned;
  }
  if (spec.budget == BudgetKind::kStridePass ||
      spec.budget == BudgetKind::kHierTokens) {
    spec.tag = rng.Below(4) != 0 ? TagRule::kCauses : TagRule::kNone;
  } else {
    spec.tag = rng.Below(2) == 0 ? TagRule::kCount : TagRule::kNone;
  }
  // Knob tables: a few meaningfully distinct settings per axis, not a
  // continuous space — keeps shrunk repros readable.
  static constexpr double kSlack[3] = {1.0 * 1024 * 1024, 4.0 * 1024 * 1024,
                                       16.0 * 1024 * 1024};
  spec.stride.pass_slack = kSlack[rng.Below(3)];
  static constexpr Nanos kReadDdl[3] = {Msec(50), Msec(100), Msec(300)};
  spec.deadline.default_read_deadline = kReadDdl[rng.Below(3)];
  static constexpr Nanos kFsyncDdl[3] = {Msec(250), Msec(500), Sec(1)};
  spec.deadline.default_fsync_deadline = kFsyncDdl[rng.Below(3)];
  static constexpr Nanos kRefill[3] = {Msec(5), Msec(10), Msec(20)};
  spec.token.refill_period = kRefill[rng.Below(3)];
  spec.scs.refill_period = spec.token.refill_period;
  static constexpr int kBatch[3] = {4, 16, 32};
  spec.deadline.fifo_batch = kBatch[rng.Below(3)];

  spec.name = "x-";
  switch (spec.dispatch) {
    case DispatchKind::kFifo: spec.name += "f"; break;
    case DispatchKind::kStride: spec.name += "s"; break;
    default: spec.name += "d"; break;
  }
  switch (spec.budget) {
    case BudgetKind::kNone: spec.name += "-n"; break;
    case BudgetKind::kStridePass: spec.name += "-p"; break;
    case BudgetKind::kHierTokens: spec.name += "-h"; break;
    case BudgetKind::kSyscallTokens: spec.name += "-y"; break;
  }
  if (spec.key == QueueKey::kAccount) {
    spec.name += "-a";
  }
  if (spec.writeback == WritebackKind::kSchedOwned) {
    spec.name += "-o";
  } else if (spec.writeback == WritebackKind::kPdflushCapped) {
    spec.name += "-c";
  }
  return spec;
}

}  // namespace splitio
