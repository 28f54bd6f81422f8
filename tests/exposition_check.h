// Registry-style validation of a Prometheus text-exposition (0.0.4)
// page, run over every page the server and the router export: each
// family's HELP and TYPE appear once and before its samples, a family's
// samples are contiguous, metric and label names are legal, every value
// parses, and all samples of a family carry the same label keys.

#ifndef OIJ_TESTS_EXPOSITION_CHECK_H_
#define OIJ_TESTS_EXPOSITION_CHECK_H_

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace oij {

namespace exposition_detail {

inline bool LegalName(const std::string& name, bool allow_colon) {
  if (name.empty() || (name[0] >= '0' && name[0] <= '9')) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' ||
                    (allow_colon && c == ':');
    if (!ok) return false;
  }
  return true;
}

inline bool ParseValue(const std::string& token) {
  if (token == "+Inf" || token == "-Inf" || token == "NaN") return true;
  if (token.empty()) return false;
  char* end = nullptr;
  std::strtod(token.c_str(), &end);
  return end == token.c_str() + token.size();
}

/// Parses `name{k="v",...} value`; false when malformed.
inline bool ParseSample(const std::string& line, std::string* name,
                        std::vector<std::string>* label_keys,
                        std::string* value) {
  size_t pos = line.find_first_of("{ ");
  if (pos == std::string::npos) return false;
  *name = line.substr(0, pos);
  label_keys->clear();
  if (line[pos] == '{') {
    ++pos;
    while (pos < line.size() && line[pos] != '}') {
      const size_t eq = line.find('=', pos);
      if (eq == std::string::npos || eq + 1 >= line.size() ||
          line[eq + 1] != '"') {
        return false;
      }
      label_keys->push_back(line.substr(pos, eq - pos));
      pos = eq + 2;
      while (pos < line.size() && line[pos] != '"') {
        if (line[pos] == '\\') {
          if (pos + 1 >= line.size()) return false;
          const char e = line[pos + 1];
          if (e != '\\' && e != '"' && e != 'n') return false;
          ++pos;
        }
        ++pos;
      }
      if (pos >= line.size()) return false;  // unterminated value
      ++pos;                                 // closing quote
      if (pos < line.size() && line[pos] == ',') ++pos;
    }
    if (pos >= line.size()) return false;
    ++pos;  // '}'
  }
  if (pos >= line.size() || line[pos] != ' ') return false;
  std::istringstream rest(line.substr(pos + 1));
  std::string timestamp;
  if (!(rest >> *value)) return false;
  if (rest >> timestamp) {
    char* end = nullptr;
    std::strtoll(timestamp.c_str(), &end, 10);
    if (end != timestamp.c_str() + timestamp.size()) return false;
  }
  std::string extra;
  return !(rest >> extra);
}

}  // namespace exposition_detail

/// Returns one line per problem found in `text`; empty when the page is
/// valid exposition.
inline std::string ExpositionProblems(const std::string& text) {
  using namespace exposition_detail;
  std::ostringstream problems;
  std::map<std::string, std::string> type_of;
  std::set<std::string> helped;
  std::set<std::string> finished;  // families whose samples have ended
  std::map<std::string, std::string> keys_of;
  std::string current;  // family of the previous sample

  std::istringstream lines(text);
  std::string line;
  size_t lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    const std::string at = "line " + std::to_string(lineno) + ": ";
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream words(line);
      std::string hash, kind, family, type;
      words >> hash >> kind >> family;
      if (kind != "HELP" && kind != "TYPE") continue;  // plain comment
      if (!LegalName(family, true)) {
        problems << at << "illegal family name '" << family << "'\n";
      }
      if (current == family || finished.count(family) != 0) {
        problems << at << kind << " for " << family
                 << " after its samples\n";
      }
      if (kind == "HELP") {
        if (!helped.insert(family).second) {
          problems << at << "second HELP for " << family << "\n";
        }
      } else {
        words >> type;
        if (!type_of.emplace(family, type).second) {
          problems << at << "second TYPE for " << family << "\n";
        }
      }
      continue;
    }

    std::string name, value;
    std::vector<std::string> keys;
    if (!ParseSample(line, &name, &keys, &value)) {
      problems << at << "malformed sample: " << line << "\n";
      continue;
    }
    if (!LegalName(name, true)) {
      problems << at << "illegal metric name '" << name << "'\n";
    }
    if (!ParseValue(value)) {
      problems << at << "unparseable value '" << value << "'\n";
    }
    std::string family = name;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s = suffix;
      if (name.size() > s.size() &&
          name.compare(name.size() - s.size(), s.size(), s) == 0) {
        const std::string base = name.substr(0, name.size() - s.size());
        const auto it = type_of.find(base);
        if (it != type_of.end() &&
            (it->second == "histogram" || it->second == "summary")) {
          family = base;
        }
      }
    }
    if (type_of.count(family) == 0 || helped.count(family) == 0) {
      problems << at << family << " sampled before its HELP and TYPE\n";
    }
    if (family != current) {
      if (finished.count(family) != 0) {
        problems << at << "samples of " << family << " are not contiguous\n";
      }
      if (!current.empty()) finished.insert(current);
      current = family;
    }
    std::vector<std::string> label_set;
    for (const std::string& key : keys) {
      if (!LegalName(key, false)) {
        problems << at << "illegal label name '" << key << "'\n";
      }
      if (!(name == family + "_bucket" && key == "le")) {
        label_set.push_back(key);
      }
    }
    std::sort(label_set.begin(), label_set.end());
    if (std::adjacent_find(label_set.begin(), label_set.end()) !=
        label_set.end()) {
      problems << at << "repeated label in " << line << "\n";
    }
    std::string joined;
    for (const std::string& key : label_set) joined += key + ",";
    const auto [it, inserted] = keys_of.emplace(family, joined);
    if (!inserted && it->second != joined) {
      problems << at << family << " mixes label sets {" << it->second
               << "} and {" << joined << "}\n";
    }
  }
  return problems.str();
}

}  // namespace oij

#endif  // OIJ_TESTS_EXPOSITION_CHECK_H_
