#include "io/spec_parser.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

namespace pathix {

namespace {

Status LineError(int line, const std::string& msg) {
  return Status::InvalidArgument("line " + std::to_string(line) + ": " + msg);
}

bool ParseDouble(const std::string& token, double* out) {
  std::size_t used = 0;
  try {
    *out = std::stod(token, &used);
  } catch (...) {
    return false;
  }
  return used == token.size();
}

Result<IndexOrg> ParseOrg(const std::string& token) {
  if (token == "MX") return IndexOrg::kMX;
  if (token == "MIX") return IndexOrg::kMIX;
  if (token == "NIX") return IndexOrg::kNIX;
  if (token == "NX") return IndexOrg::kNX;
  if (token == "PX") return IndexOrg::kPX;
  if (token == "NONE") return IndexOrg::kNone;
  return Status::InvalidArgument("unknown organization '" + token + "'");
}

/// A `path` directive with the `load` lines bound to it.
struct PendingPath {
  int line = 0;  // of the path directive, for late errors
  std::string name;  // explicit spec name; empty when unnamed
  ClassId start = kInvalidClass;
  std::vector<std::string> attrs;
  LoadDistribution load;
  std::set<ClassId> loaded_classes;  // duplicate detection
};

/// One raw `mix` line, validated against path scopes only after the paths
/// have been resolved (the errors keep the line number).
struct RawMix {
  int line = 0;
  std::size_t phase = 0;
  std::string path_name;  // empty: the legacy single-path form
  ClassId cls = kInvalidClass;
  double query = 0;
  double insert = 0;
  double del = 0;
};

/// Trace-mode collection state: the spec under construction plus the raw
/// lines whose validation needs the resolved paths.
struct TraceParseState {
  TraceSpec spec;
  std::vector<RawMix> mixes;
  std::vector<int> populate_lines;  // parallel to spec.populate
};

/// Which spec flavor is being parsed (gates the flavor-specific directives).
enum class SpecMode { kSinglePath, kWorkload, kTrace };

/// Shared parser for all three spec flavors. kWorkload and kTrace permit
/// multiple (optionally named) paths, per-path load sections and the budget
/// directive; kTrace additionally permits the populate/trace_seed/phase/mix
/// section, collected into \p trace (non-null exactly in trace mode).
Result<WorkloadSpec> ParseSpecImpl(const std::string& text, SpecMode mode,
                                   TraceParseState* trace) {
  const bool multi_path = mode != SpecMode::kSinglePath;
  TraceSpec* trace_out = trace != nullptr ? &trace->spec : nullptr;
  WorkloadSpec spec;
  std::vector<PendingPath> pending;
  std::set<std::string> path_names;
  std::set<ClassId> populated;      // trace: duplicate populate detection
  // trace: per-phase duplicate detection — (path name, class) for queries,
  // class for update weights.
  std::set<std::pair<std::string, ClassId>> mixed_queries;
  std::set<ClassId> mixed_updates;
  bool phase_has_weight = false;    // trace: current phase has a weight > 0
  bool have_seed = false;
  LoadDistribution default_load;       // loads before the first path
  std::set<ClassId> default_loaded;    // duplicate detection
  bool have_orgs = false;

  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.resize(hash);
    std::istringstream line(raw);
    std::vector<std::string> tok;
    for (std::string t; line >> t;) tok.push_back(t);
    if (tok.empty()) continue;
    const std::string& cmd = tok[0];

    if (cmd == "page_size" || cmd == "oid_len" || cmd == "key_len") {
      double v;
      // Bounds are checked in negated form so NaN fails them too.
      if (tok.size() != 2 || !ParseDouble(tok[1], &v) || !(v > 0)) {
        return LineError(line_no, cmd + " expects one positive number");
      }
      PhysicalParams* pp = spec.catalog.mutable_params();
      if (cmd == "page_size") pp->page_size = v;
      if (cmd == "oid_len") pp->oid_len = v;
      if (cmd == "key_len") pp->key_len = v;
    } else if (cmd == "class") {
      // class NAME [: SUPER] n d nin [obj_len]
      if (tok.size() < 5) {
        return LineError(line_no, "class NAME [: SUPER] n d nin [obj_len]");
      }
      std::size_t i = 1;
      const std::string name = tok[i++];
      if (path_names.count(name) > 0) {
        return LineError(line_no, "class '" + name +
                                      "' collides with a path name");
      }
      ClassId super = kInvalidClass;
      if (tok[i] == ":") {
        if (tok.size() < 7) {
          return LineError(line_no, "subclass declaration needs n d nin");
        }
        super = spec.schema.FindClass(tok[i + 1]);
        if (super == kInvalidClass) {
          return LineError(line_no, "unknown superclass '" + tok[i + 1] + "'");
        }
        i += 2;
      }
      double n, d, nin, obj_len = 64;
      if (tok.size() < i + 3 || !ParseDouble(tok[i], &n) ||
          !ParseDouble(tok[i + 1], &d) || !ParseDouble(tok[i + 2], &nin)) {
        return LineError(line_no, "class statistics must be numeric");
      }
      if (tok.size() > i + 3 && !ParseDouble(tok[i + 3], &obj_len)) {
        return LineError(line_no, "obj_len must be numeric");
      }
      Result<ClassId> cls = spec.schema.AddClass(name, super);
      if (!cls.ok()) return LineError(line_no, cls.status().message());
      spec.catalog.SetClassStats(cls.value(), ClassStats{n, d, nin, obj_len});
    } else if (cmd == "ref") {
      if (tok.size() < 4) {
        return LineError(line_no, "ref CLASS ATTR DOMAIN [multi]");
      }
      const ClassId cls = spec.schema.FindClass(tok[1]);
      const ClassId domain = spec.schema.FindClass(tok[3]);
      if (cls == kInvalidClass || domain == kInvalidClass) {
        return LineError(line_no, "unknown class in ref");
      }
      const bool multi = tok.size() > 4 && tok[4] == "multi";
      const Status s =
          spec.schema.AddReferenceAttribute(cls, tok[2], domain, multi);
      if (!s.ok()) return LineError(line_no, s.message());
    } else if (cmd == "attr") {
      if (tok.size() < 4) {
        return LineError(line_no, "attr CLASS NAME string|int [multi]");
      }
      const ClassId cls = spec.schema.FindClass(tok[1]);
      if (cls == kInvalidClass) {
        return LineError(line_no, "unknown class '" + tok[1] + "'");
      }
      AtomicType type;
      if (tok[3] == "string") {
        type = AtomicType::kString;
      } else if (tok[3] == "int") {
        type = AtomicType::kInt;
      } else {
        return LineError(line_no, "atomic type must be string or int");
      }
      const bool multi = tok.size() > 4 && tok[4] == "multi";
      const Status s = spec.schema.AddAtomicAttribute(cls, tok[2], type, multi);
      if (!s.ok()) return LineError(line_no, s.message());
    } else if (cmd == "path") {
      if (!multi_path && !pending.empty()) {
        return LineError(line_no, "only one path per spec");
      }
      if (trace_out != nullptr && !trace_out->phases.empty()) {
        return LineError(line_no, "paths must be declared before phases");
      }
      if (tok.size() < 3) {
        return LineError(line_no, "path [NAME] CLASS attr...");
      }
      PendingPath p;
      p.line = line_no;
      // Trace mixes reference paths by name, so a multi-path trace with an
      // unnamed path would be unusable; reject it at the declaration (the
      // check for the earlier path, which was legal while it was alone,
      // lives after this directive is parsed).
      std::size_t i = 1;
      p.start = spec.schema.FindClass(tok[i]);
      if (p.start == kInvalidClass) {
        // Named form: path NAME CLASS attr...
        if (tok.size() < 4) {
          return LineError(line_no, "unknown class '" + tok[i] + "'");
        }
        p.name = tok[i++];
        if (spec.schema.FindClass(p.name) != kInvalidClass) {
          return LineError(line_no, "path name '" + p.name +
                                        "' collides with a class name");
        }
        if (!path_names.insert(p.name).second) {
          return LineError(line_no, "duplicate path name '" + p.name + "'");
        }
        p.start = spec.schema.FindClass(tok[i]);
        if (p.start == kInvalidClass) {
          return LineError(line_no, "unknown class '" + tok[i] + "'");
        }
      }
      ++i;
      p.attrs.assign(tok.begin() + static_cast<long>(i), tok.end());
      pending.push_back(std::move(p));
      if (trace_out != nullptr && pending.size() >= 2) {
        for (const PendingPath& declared : pending) {
          if (declared.name.empty()) {
            return LineError(declared.line,
                             "multi-path traces require named paths "
                             "(path NAME CLASS attr...), so mix lines can "
                             "direct their queries");
          }
        }
      }
    } else if (cmd == "load") {
      if (tok.size() != 5) {
        return LineError(line_no, "load CLASS alpha beta gamma");
      }
      const ClassId cls = spec.schema.FindClass(tok[1]);
      if (cls == kInvalidClass) {
        return LineError(line_no, "unknown class '" + tok[1] + "'");
      }
      double a, b, g;
      if (!ParseDouble(tok[2], &a) || !ParseDouble(tok[3], &b) ||
          !ParseDouble(tok[4], &g) || !(a >= 0) || !(b >= 0) || !(g >= 0)) {
        return LineError(line_no, "load frequencies must be >= 0");
      }
      // In multi-path modes a load binds to the most recent path; loads
      // before the first path are defaults for every path. Single-path
      // specs keep one global section (declaration order does not matter).
      const bool to_default = !multi_path || pending.empty();
      LoadDistribution& target =
          to_default ? default_load : pending.back().load;
      std::set<ClassId>& seen =
          to_default ? default_loaded : pending.back().loaded_classes;
      if (!seen.insert(cls).second) {
        return LineError(line_no,
                         "duplicate load for class '" + tok[1] + "'");
      }
      target.Set(cls, a, b, g);
    } else if (cmd == "orgs") {
      if (have_orgs) {
        return LineError(line_no, "duplicate orgs directive");
      }
      if (tok.size() < 2) return LineError(line_no, "orgs needs at least one");
      have_orgs = true;
      spec.options.orgs.clear();
      for (std::size_t i = 1; i < tok.size(); ++i) {
        Result<IndexOrg> org = ParseOrg(tok[i]);
        if (!org.ok()) return LineError(line_no, org.status().message());
        spec.options.orgs.push_back(org.value());
      }
    } else if (cmd == "matching_keys") {
      double v;
      if (tok.size() != 2 || !ParseDouble(tok[1], &v) || !(v >= 1)) {
        return LineError(line_no, "matching_keys expects a number >= 1");
      }
      spec.options.query_profile.matching_keys = v;
    } else if (cmd == "populate" && trace_out != nullptr) {
      // populate CLASS COUNT [DISTINCT [NIN]]
      if (tok.size() < 3 || tok.size() > 5) {
        return LineError(line_no, "populate CLASS COUNT [DISTINCT [NIN]]");
      }
      TracePopulate p;
      p.cls = spec.schema.FindClass(tok[1]);
      if (p.cls == kInvalidClass) {
        return LineError(line_no, "unknown class '" + tok[1] + "'");
      }
      if (!populated.insert(p.cls).second) {
        return LineError(line_no, "duplicate populate for '" + tok[1] + "'");
      }
      // Upper bounds keep the int/uint casts below defined for any input.
      double count, distinct = 0, nin = 1;
      if (!ParseDouble(tok[2], &count) || !(count >= 0) || count > 1e9) {
        return LineError(line_no, "populate count must be in [0, 1e9]");
      }
      if (tok.size() > 3 && (!ParseDouble(tok[3], &distinct) ||
                             !(distinct >= 0) || distinct > 1e9)) {
        return LineError(line_no, "populate distinct must be in [0, 1e9]");
      }
      if (tok.size() > 4 && (!ParseDouble(tok[4], &nin) || !(nin >= 1))) {
        return LineError(line_no, "populate nin must be >= 1");
      }
      p.count = static_cast<int>(count);
      // Default ending-value pool: a tenth of the objects, at least one.
      p.distinct_values = distinct > 0 ? static_cast<int>(distinct)
                                       : std::max(1, p.count / 10);
      p.nin = nin;
      trace_out->populate.push_back(p);
      trace->populate_lines.push_back(line_no);
    } else if (cmd == "trace_seed" && trace_out != nullptr) {
      double v;
      if (have_seed || tok.size() != 2 || !ParseDouble(tok[1], &v) ||
          !(v >= 0) || v > 4294967295.0) {
        return LineError(line_no, have_seed
                                      ? "duplicate trace_seed"
                                      : "trace_seed expects one number in "
                                        "[0, 2^32)");
      }
      have_seed = true;
      trace_out->seed = static_cast<std::uint32_t>(v);
    } else if (cmd == "phase" && trace_out != nullptr) {
      // phase NAME OPS
      double ops;
      if (tok.size() != 3 || !ParseDouble(tok[2], &ops) || !(ops >= 1) ||
          ops > 1e15) {
        return LineError(line_no, "phase NAME OPS (1 to 1e15 operations)");
      }
      if (!trace_out->phases.empty() && !phase_has_weight) {
        return LineError(line_no, "phase '" + trace_out->phases.back().name +
                                      "' has no positive mix weights");
      }
      TracePhase phase;
      phase.name = tok[1];
      phase.ops = static_cast<std::uint64_t>(ops);
      trace_out->phases.push_back(std::move(phase));
      mixed_queries.clear();
      mixed_updates.clear();
      phase_has_weight = false;
    } else if (cmd == "mix" && trace_out != nullptr) {
      if (trace_out->phases.empty()) {
        return LineError(line_no, "mix before the first phase");
      }
      // mix [PATH] CLASS query insert delete
      if (tok.size() != 5 && tok.size() != 6) {
        return LineError(line_no, "mix [PATH] CLASS query insert delete");
      }
      RawMix mix;
      mix.line = line_no;
      mix.phase = trace_out->phases.size() - 1;
      std::size_t i = 1;
      if (tok.size() == 6) {
        mix.path_name = tok[i++];
        if (path_names.count(mix.path_name) == 0) {
          return LineError(line_no, "mix names path '" + mix.path_name +
                                        "', which is not declared in this "
                                        "spec's workload section");
        }
      }
      mix.cls = spec.schema.FindClass(tok[i]);
      if (mix.cls == kInvalidClass) {
        return LineError(line_no, "unknown class '" + tok[i] + "'");
      }
      if (!ParseDouble(tok[i + 1], &mix.query) ||
          !ParseDouble(tok[i + 2], &mix.insert) ||
          !ParseDouble(tok[i + 3], &mix.del) || !(mix.query >= 0) ||
          !(mix.insert >= 0) || !(mix.del >= 0)) {
        return LineError(line_no, "mix weights must be >= 0");
      }
      if (!mixed_queries.emplace(mix.path_name, mix.cls).second) {
        return LineError(line_no, "duplicate mix for class '" + tok[i] +
                                      "'" +
                                      (mix.path_name.empty()
                                           ? std::string()
                                           : " on path '" + mix.path_name +
                                                 "'"));
      }
      if (mix.insert > 0 || mix.del > 0) {
        if (!mixed_updates.insert(mix.cls).second) {
          return LineError(line_no,
                           "update weights for class '" + tok[i] +
                               "' are already given in this phase (updates "
                               "are path-agnostic; give them once)");
        }
      }
      if (mix.query + mix.insert + mix.del > 0) phase_has_weight = true;
      trace->mixes.push_back(std::move(mix));
    } else if (cmd == "measure" && trace_out != nullptr) {
      // measure on|off — opt the trace into the measured-vs-modeled
      // validation replay (pathix_online prints the per-phase, per-path
      // comparison when on).
      if (tok.size() != 2 || (tok[1] != "on" && tok[1] != "off")) {
        return LineError(line_no, "measure expects 'on' or 'off'");
      }
      trace_out->measure = tok[1] == "on";
    } else if (cmd == "budget") {
      if (!multi_path) {
        return LineError(line_no,
                         "budget is only valid in workload and trace specs "
                         "(pathix_workload_advise, pathix_online)");
      }
      if (spec.has_budget) {
        return LineError(line_no, "duplicate budget directive");
      }
      double v;
      if (tok.size() != 2 || !ParseDouble(tok[1], &v) || !(v >= 0) ||
          v == std::numeric_limits<double>::infinity()) {
        return LineError(line_no, "budget expects one number of bytes >= 0");
      }
      spec.has_budget = true;
      spec.joint_options.storage_budget_bytes = v;
    } else if (cmd == "populate" || cmd == "trace_seed" || cmd == "phase" ||
               cmd == "mix" || cmd == "measure") {
      return LineError(line_no, cmd + " is only valid in trace specs "
                                      "(pathix_online)");
    } else {
      return LineError(line_no, "unknown directive '" + cmd + "'");
    }
  }

  if (pending.empty()) {
    return Status::InvalidArgument("spec declares no path");
  }
  if (trace_out != nullptr) {
    if (trace_out->populate.empty()) {
      return Status::InvalidArgument("trace spec declares no populate lines");
    }
    if (trace_out->phases.empty()) {
      return Status::InvalidArgument("trace spec declares no phases");
    }
    if (!phase_has_weight) {
      return Status::InvalidArgument("phase '" + trace_out->phases.back().name +
                                     "' has no positive mix weights");
    }
  }
  PATHIX_RETURN_IF_ERROR(spec.schema.Validate());

  for (std::size_t k = 0; k < pending.size(); ++k) {
    PendingPath& p = pending[k];
    Result<Path> path = Path::Create(spec.schema, p.start, p.attrs);
    if (!path.ok()) return LineError(p.line, path.status().message());
    PathWorkload workload;
    // Synthesized names start with '#', which comment stripping makes
    // unwritable in a spec — they can never collide with (or be mistaken
    // for) an explicit name.
    workload.name = !p.name.empty() ? p.name : "#" + std::to_string(k);
    workload.path = std::move(path).value();
    workload.load = default_load;  // defaults first, then overrides
    for (const ClassId cls : p.loaded_classes) {
      workload.load.Set(cls, p.load.Get(cls));
    }
    spec.paths.push_back(std::move(workload));
  }
  return spec;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open spec file '" + path + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

void TracePhase::SetSinglePathMix(const LoadDistribution& combined) {
  queries.assign(1, {});
  updates.clear();
  for (const auto& [cls, load] : combined.entries()) {
    if (load.query > 0) queries[0][cls] = load.query;
    if (load.insert > 0 || load.del > 0) {
      updates[cls] = OpLoad{0, load.insert, load.del};
    }
  }
  mixes.assign(1, combined);
}

Result<AdvisorSpec> ParseAdvisorSpec(const std::string& text) {
  Result<WorkloadSpec> parsed =
      ParseSpecImpl(text, SpecMode::kSinglePath, nullptr);
  if (!parsed.ok()) return parsed.status();
  WorkloadSpec& w = parsed.value();
  AdvisorSpec spec;
  spec.schema = std::move(w.schema);
  spec.catalog = std::move(w.catalog);
  spec.options = std::move(w.options);
  spec.load = std::move(w.paths.front().load);
  spec.path = std::move(w.paths.front().path);
  return spec;
}

Result<AdvisorSpec> ParseAdvisorSpecFile(const std::string& path) {
  Result<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseAdvisorSpec(text.value());
}

Result<WorkloadSpec> ParseWorkloadSpec(const std::string& text) {
  return ParseSpecImpl(text, SpecMode::kWorkload, nullptr);
}

Result<WorkloadSpec> ParseWorkloadSpecFile(const std::string& path) {
  Result<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseWorkloadSpec(text.value());
}

Result<TraceSpec> ParseTraceSpec(const std::string& text) {
  TraceParseState state;
  Result<WorkloadSpec> parsed = ParseSpecImpl(text, SpecMode::kTrace, &state);
  if (!parsed.ok()) return parsed.status();
  WorkloadSpec& w = parsed.value();
  TraceSpec& trace = state.spec;
  trace.schema = std::move(w.schema);
  trace.catalog = std::move(w.catalog);
  trace.options = std::move(w.options);
  trace.storage_budget_bytes = w.joint_options.storage_budget_bytes;
  trace.has_budget = w.has_budget;

  // Path ids: the spec's names; the sole *unnamed* path of a single-path
  // trace (synthesized "#0") keeps the database's default id so the
  // degenerate case is literally the single-path subsystem. Multi-path
  // traces reject unnamed paths at parse time, so synthesized names never
  // become ids.
  std::map<std::string, std::size_t> path_index;
  std::vector<std::set<ClassId>> scopes;
  for (std::size_t k = 0; k < w.paths.size(); ++k) {
    TracePath tp;
    tp.id = (w.paths.size() == 1 && w.paths[k].name == "#0")
                ? "default"
                : w.paths[k].name;
    tp.path = std::move(w.paths[k].path);
    tp.claimed_load = std::move(w.paths[k].load);
    const std::vector<ClassId> scope_vec = tp.path.Scope(trace.schema);
    scopes.emplace_back(scope_vec.begin(), scope_vec.end());
    path_index[w.paths[k].name] = k;
    trace.paths.push_back(std::move(tp));
  }

  // The phase driver turns mix entries into concrete operations; resolve every
  // raw line against the declared paths' scopes, keeping line numbers.
  for (TracePhase& phase : trace.phases) {
    phase.queries.assign(trace.paths.size(), {});
  }
  for (const RawMix& mix : state.mixes) {
    std::size_t p = 0;
    if (mix.path_name.empty()) {
      if (trace.paths.size() > 1) {
        return LineError(mix.line,
                         "this trace declares several paths; mix lines must "
                         "name the path their queries hit "
                         "(mix PATH CLASS q i d)");
      }
    } else {
      p = path_index.at(mix.path_name);
    }
    TracePhase& phase = trace.phases[mix.phase];
    const std::string cls_name = trace.schema.GetClass(mix.cls).name();
    if (mix.query > 0 && scopes[p].count(mix.cls) == 0) {
      return LineError(mix.line, "phase '" + phase.name + "': mix class '" +
                                     cls_name + "' is not in the scope of "
                                     "path '" +
                                     trace.paths[p].id + "'");
    }
    if (mix.insert > 0 || mix.del > 0) {
      bool anywhere = false;
      for (const std::set<ClassId>& scope : scopes) {
        if (scope.count(mix.cls) > 0) {
          anywhere = true;
          break;
        }
      }
      if (!anywhere) {
        return LineError(mix.line, "phase '" + phase.name +
                                       "': update class '" + cls_name +
                                       "' is not in any declared path's "
                                       "scope");
      }
    }
    if (mix.query > 0) phase.queries[p][mix.cls] += mix.query;
    if (mix.insert > 0 || mix.del > 0) {
      OpLoad& upd = phase.updates[mix.cls];
      upd.insert += mix.insert;
      upd.del += mix.del;
    }
  }

  // Resolved per-path mixes: path p's queries as alpha, plus the updates of
  // the classes in its scope as beta/gamma — the view oracle and claimed-
  // load consumers solve on.
  for (TracePhase& phase : trace.phases) {
    phase.mixes.assign(trace.paths.size(), {});
    for (std::size_t p = 0; p < trace.paths.size(); ++p) {
      std::map<ClassId, OpLoad> merged;
      for (const auto& [cls, weight] : phase.queries[p]) {
        merged[cls].query += weight;
      }
      for (const auto& [cls, upd] : phase.updates) {
        if (scopes[p].count(cls) == 0) continue;
        merged[cls].insert += upd.insert;
        merged[cls].del += upd.del;
      }
      for (const auto& [cls, load] : merged) {
        phase.mixes[p].Set(cls, load);
      }
    }
  }

  for (std::size_t i = 0; i < trace.populate.size(); ++i) {
    bool anywhere = false;
    for (const std::set<ClassId>& scope : scopes) {
      if (scope.count(trace.populate[i].cls) > 0) {
        anywhere = true;
        break;
      }
    }
    if (!anywhere) {
      return LineError(state.populate_lines[i],
                       "populate class '" +
                           trace.schema.GetClass(trace.populate[i].cls)
                               .name() +
                           "' is not in any declared path's scope");
    }
  }
  return trace;
}

Result<TraceSpec> ParseTraceSpecFile(const std::string& path) {
  Result<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseTraceSpec(text.value());
}

}  // namespace pathix
