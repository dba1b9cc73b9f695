#include "core/serialize.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <set>
#include <sstream>
#include <utility>

#include "common/fault_injection.h"
#include "common/journal.h"

namespace olapidx {

namespace {

std::string Trim(const std::string& s) {
  size_t begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  size_t end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

std::vector<std::string> SplitTrimmed(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string current;
  for (char c : s) {
    if (c == sep) {
      out.push_back(Trim(current));
      current.clear();
    } else {
      current += c;
    }
  }
  out.push_back(Trim(current));
  return out;
}

int AttrByName(const CubeSchema& schema, const std::string& name) {
  for (int a = 0; a < schema.num_dimensions(); ++a) {
    if (schema.dimension(a).name == name) return a;
  }
  return -1;
}

std::string AttrsToNames(AttributeSet attrs, const CubeSchema& schema) {
  if (attrs.empty()) return "none";
  std::string out;
  for (int a : attrs.ToVector()) {
    if (!out.empty()) out += ",";
    out += schema.dimension(a).name;
  }
  return out;
}

// Parses an *unordered* attribute set ("none" allowed).
bool ParseAttrSet(const std::string& field, const CubeSchema& schema,
                  AttributeSet* attrs, std::string* error) {
  *attrs = AttributeSet();
  std::string trimmed = Trim(field);
  if (trimmed == "none" || trimmed.empty()) return true;
  for (const std::string& name : SplitTrimmed(trimmed, ',')) {
    int a = AttrByName(schema, name);
    if (a < 0) {
      *error = "unknown dimension '" + name + "'";
      return false;
    }
    if (attrs->Contains(a)) {
      *error = "duplicate dimension '" + name + "'";
      return false;
    }
    *attrs = attrs->With(a);
  }
  return true;
}

// Parses an *ordered* key ("s,p" -> IndexKey({1,0})).
bool ParseKey(const std::string& field, const CubeSchema& schema,
              IndexKey* key, std::string* error) {
  std::vector<int> order;
  AttributeSet seen;
  for (const std::string& name : SplitTrimmed(Trim(field), ',')) {
    int a = AttrByName(schema, name);
    if (a < 0) {
      *error = "unknown dimension '" + name + "'";
      return false;
    }
    if (seen.Contains(a)) {
      *error = "duplicate dimension '" + name + "'";
      return false;
    }
    seen = seen.With(a);
    order.push_back(a);
  }
  if (order.empty()) {
    *error = "empty index key";
    return false;
  }
  *key = IndexKey(order);
  return true;
}

std::string KeyToNames(const IndexKey& key, const CubeSchema& schema) {
  std::string out;
  for (int a : key.attrs()) {
    if (!out.empty()) out += ",";
    out += schema.dimension(a).name;
  }
  return out;
}

// Tracks which structures a design being parsed has declared so far, for
// duplicate and index-before-view rejection.
struct DesignDedup {
  std::set<uint32_t> views;                              // by attr mask
  std::set<std::pair<uint32_t, IndexKey>> indexes;  // (view, key)
};

// Parses one "view <attrs>" or "index <view> : <key>" line into a
// RecommendedStructure, enforcing the structural design rules: no
// duplicate structure, every index after its view's own line. On success
// appends to `out`.
bool ParseStructureLine(const std::string& line, const CubeSchema& schema,
                        DesignDedup* dedup,
                        std::vector<RecommendedStructure>* out,
                        std::string* error) {
  if (line.rfind("view ", 0) == 0) {
    AttributeSet attrs;
    if (!ParseAttrSet(line.substr(5), schema, &attrs, error)) return false;
    if (!dedup->views.insert(attrs.mask()).second) {
      *error = "duplicate view '" + AttrsToNames(attrs, schema) + "'";
      return false;
    }
    RecommendedStructure s;
    s.view = attrs;
    s.name = attrs.ToString(schema.names());
    out->push_back(std::move(s));
    return true;
  }
  if (line.rfind("index ", 0) == 0) {
    std::string rest = line.substr(6);
    size_t colon = rest.find(':');
    if (colon == std::string::npos) {
      *error = "expected 'index <view> : <key>'";
      return false;
    }
    AttributeSet view_attrs;
    if (!ParseAttrSet(rest.substr(0, colon), schema, &view_attrs, error)) {
      return false;
    }
    IndexKey key;
    if (!ParseKey(rest.substr(colon + 1), schema, &key, error)) {
      return false;
    }
    if (!key.AsSet().IsSubsetOf(view_attrs)) {
      *error = "index key uses attributes outside its view";
      return false;
    }
    if (dedup->views.find(view_attrs.mask()) == dedup->views.end()) {
      *error = "index on unmaterialized view '" +
               AttrsToNames(view_attrs, schema) +
               "' (no preceding 'view' line)";
      return false;
    }
    if (!dedup->indexes.insert({view_attrs.mask(), key}).second) {
      *error = "duplicate index '" + KeyToNames(key, schema) + "' on view '" +
               AttrsToNames(view_attrs, schema) + "'";
      return false;
    }
    RecommendedStructure s;
    s.view = view_attrs;
    s.index = key;
    s.name = key.ToString(schema.names()) + "(" +
             view_attrs.ToString(schema.names()) + ")";
    out->push_back(std::move(s));
    return true;
  }
  *error = "expected 'view ...' or 'index ...'";
  return false;
}

// Strips comments, iterates non-blank trimmed lines of `text`, calling
// fn(line) until it returns a non-OK Status, which is returned tagged
// with the 1-based line number. Checks the header on the first line.
Status ForEachLine(const std::string& text, const std::string& header,
                   const std::function<Status(const std::string&)>& fn) {
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  bool header_seen = false;
  while (std::getline(in, line)) {
    ++line_no;
    size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = Trim(line);
    if (line.empty()) continue;
    if (!header_seen) {
      if (line != header) {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": expected header '" + header + "'");
      }
      header_seen = true;
      continue;
    }
    Status status = fn(line);
    if (!status.ok()) {
      return Status(status.code(), "line " + std::to_string(line_no) + ": " +
                                       std::string(status.message()));
    }
  }
  if (!header_seen) {
    return Status::InvalidArgument("line 1: missing header '" + header +
                                   "'");
  }
  return Status::Ok();
}

// Parses a strictly finite, non-negative double occupying the whole field.
bool ParseNonNegativeDouble(const std::string& field, double* out) {
  std::string num = Trim(field);
  if (num.empty()) return false;
  char* end = nullptr;
  double value = std::strtod(num.c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  if (!std::isfinite(value) || value < 0.0) return false;
  *out = value;
  return true;
}

}  // namespace

std::string SerializeDesign(
    const std::vector<RecommendedStructure>& structures,
    const CubeSchema& schema) {
  std::string out = "olapidx-design v1\n";
  for (const RecommendedStructure& s : structures) {
    if (s.is_view()) {
      out += "view " + AttrsToNames(s.view, schema) + "\n";
    } else {
      out += "index " + AttrsToNames(s.view, schema) + " : " +
             KeyToNames(s.index, schema) + "\n";
    }
  }
  return out;
}

StatusOr<std::vector<RecommendedStructure>> ParseDesign(
    const std::string& text, const CubeSchema& schema) {
  OLAPIDX_FAULT_POINT("serialize.design.parse");
  std::vector<RecommendedStructure> structures;
  DesignDedup dedup;
  Status status =
      ForEachLine(text, "olapidx-design v1", [&](const std::string& line) {
        std::string error;
        if (!ParseStructureLine(line, schema, &dedup, &structures, &error)) {
          return Status::InvalidArgument(error);
        }
        return Status::Ok();
      });
  if (!status.ok()) return status;
  return structures;
}

std::string SerializeViewSizes(const ViewSizes& sizes,
                               const CubeSchema& schema) {
  std::string out = "olapidx-sizes v1\n";
  for (uint32_t v = 0; v < sizes.num_views(); ++v) {
    AttributeSet attrs = AttributeSet::FromMask(v);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", sizes[v]);
    out += "size " + AttrsToNames(attrs, schema) + " " + buf + "\n";
  }
  return out;
}

StatusOr<ViewSizes> ParseViewSizes(const std::string& text,
                                   const CubeSchema& schema) {
  OLAPIDX_FAULT_POINT("serialize.sizes.parse");
  ViewSizes sizes(schema.num_dimensions());
  std::set<uint32_t> seen;
  Status status =
      ForEachLine(text, "olapidx-sizes v1", [&](const std::string& line) {
        if (line.rfind("size ", 0) != 0) {
          return Status::InvalidArgument("expected 'size ...'");
        }
        std::string rest = Trim(line.substr(5));
        size_t space = rest.find_last_of(" \t");
        if (space == std::string::npos) {
          return Status::InvalidArgument("expected 'size <attrs> <rows>'");
        }
        AttributeSet attrs;
        std::string attr_error;
        if (!ParseAttrSet(rest.substr(0, space), schema, &attrs,
                          &attr_error)) {
          return Status::InvalidArgument(attr_error);
        }
        if (!seen.insert(attrs.mask()).second) {
          return Status::InvalidArgument(
              "duplicate size for subcube '" + AttrsToNames(attrs, schema) +
              "'");
        }
        std::string num = Trim(rest.substr(space + 1));
        double rows = 0.0;
        if (!ParseNonNegativeDouble(num, &rows) || rows < 1.0) {
          return Status::InvalidArgument("bad row count '" + num + "'");
        }
        sizes.Set(attrs, rows);
        return Status::Ok();
      });
  if (!status.ok()) return status;
  if (!sizes.Complete()) {
    return Status::InvalidArgument(
        "missing sizes: not every subcube was given a row count");
  }
  return sizes;
}

std::string SerializeCheckpoint(const SelectionCheckpoint& checkpoint,
                                const CubeSchema& schema) {
  std::string out = "olapidx-checkpoint v1\n";
  out += "algorithm " + checkpoint.algorithm + "\n";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", checkpoint.space_budget);
  out += "budget " + std::string(buf) + "\n";
  if (checkpoint.graph_fingerprint != 0) {
    out += "graph " + HashToHex(checkpoint.graph_fingerprint) + "\n";
  }
  out += "stages " + std::to_string(checkpoint.stages) + "\n";
  for (size_t i = 0; i < checkpoint.picks.size(); ++i) {
    const RecommendedStructure& s = checkpoint.picks[i];
    double benefit =
        i < checkpoint.pick_benefits.size() ? checkpoint.pick_benefits[i]
                                            : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", benefit);
    out += "pick " + std::string(buf) + " ";
    if (s.is_view()) {
      out += "view " + AttrsToNames(s.view, schema) + "\n";
    } else {
      out += "index " + AttrsToNames(s.view, schema) + " : " +
             KeyToNames(s.index, schema) + "\n";
    }
  }
  return out;
}

StatusOr<SelectionCheckpoint> ParseCheckpoint(const std::string& text,
                                              const CubeSchema& schema) {
  OLAPIDX_FAULT_POINT("serialize.checkpoint.parse");
  SelectionCheckpoint checkpoint;
  DesignDedup dedup;
  bool algorithm_seen = false;
  bool budget_seen = false;
  bool stages_seen = false;
  Status status = ForEachLine(
      text, "olapidx-checkpoint v1", [&](const std::string& line) {
        if (line.rfind("algorithm ", 0) == 0) {
          if (algorithm_seen) {
            return Status::InvalidArgument("duplicate 'algorithm' line");
          }
          algorithm_seen = true;
          checkpoint.algorithm = Trim(line.substr(10));
          if (checkpoint.algorithm.empty()) {
            return Status::InvalidArgument("empty algorithm name");
          }
          return Status::Ok();
        }
        if (line.rfind("budget ", 0) == 0) {
          if (budget_seen) {
            return Status::InvalidArgument("duplicate 'budget' line");
          }
          budget_seen = true;
          if (!ParseNonNegativeDouble(line.substr(7),
                                      &checkpoint.space_budget)) {
            return Status::InvalidArgument("bad budget '" +
                                           Trim(line.substr(7)) + "'");
          }
          return Status::Ok();
        }
        if (line.rfind("graph ", 0) == 0) {
          if (checkpoint.graph_fingerprint != 0) {
            return Status::InvalidArgument("duplicate 'graph' line");
          }
          std::string hex = Trim(line.substr(6));
          if (!ParseHexHash(hex, &checkpoint.graph_fingerprint) ||
              checkpoint.graph_fingerprint == 0) {
            return Status::InvalidArgument(
                "bad graph fingerprint '" + hex +
                "' (expected 16 hex digits, nonzero)");
          }
          return Status::Ok();
        }
        if (line.rfind("stages ", 0) == 0) {
          if (stages_seen) {
            return Status::InvalidArgument("duplicate 'stages' line");
          }
          stages_seen = true;
          std::string num = Trim(line.substr(7));
          char* end = nullptr;
          unsigned long long stages = std::strtoull(num.c_str(), &end, 10);
          if (num.empty() || end == nullptr || *end != '\0') {
            return Status::InvalidArgument("bad stage count '" + num + "'");
          }
          checkpoint.stages = static_cast<uint64_t>(stages);
          return Status::Ok();
        }
        if (line.rfind("pick ", 0) == 0) {
          std::string rest = Trim(line.substr(5));
          size_t space = rest.find_first_of(" \t");
          if (space == std::string::npos) {
            return Status::InvalidArgument(
                "expected 'pick <benefit> view|index ...'");
          }
          double benefit = 0.0;
          if (!ParseNonNegativeDouble(rest.substr(0, space), &benefit)) {
            return Status::InvalidArgument("bad pick benefit '" +
                                           rest.substr(0, space) + "'");
          }
          std::string structure = Trim(rest.substr(space + 1));
          std::string error;
          if (!ParseStructureLine(structure, schema, &dedup,
                                  &checkpoint.picks, &error)) {
            return Status::InvalidArgument(error);
          }
          checkpoint.pick_benefits.push_back(benefit);
          return Status::Ok();
        }
        return Status::InvalidArgument(
            "expected 'algorithm', 'budget', 'graph', 'stages', or "
            "'pick ...'");
      });
  if (!status.ok()) return status;
  if (!algorithm_seen) {
    return Status::InvalidArgument("missing 'algorithm' line");
  }
  if (!budget_seen) return Status::InvalidArgument("missing 'budget' line");
  if (!stages_seen) return Status::InvalidArgument("missing 'stages' line");
  if (checkpoint.stages > checkpoint.picks.size()) {
    return Status::InvalidArgument(
        "stage count exceeds the number of picks");
  }
  return checkpoint;
}

}  // namespace olapidx
