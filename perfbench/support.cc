#include "support.h"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double ProcessCpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

/// Recursive-descent reader of Value::ToString output. Strings are
/// rendered without escapes, so a string runs to the next quote.
class CanonReader {
 public:
  explicit CanonReader(std::string_view s) : s_(s) {}

  std::optional<std::string> Read() {
    if (++depth_ > 256) return std::nullopt;
    std::optional<std::string> out = ReadValue();
    --depth_;
    return out;
  }

  bool AtEnd() {
    SkipSpaces();
    return pos_ == s_.size();
  }

 private:
  std::optional<std::string> ReadValue() {
    SkipSpaces();
    if (pos_ >= s_.size()) return std::nullopt;
    char c = s_[pos_];
    if (c == '"') {
      size_t end = s_.find('"', pos_ + 1);
      if (end == std::string_view::npos) return std::nullopt;
      std::string out(s_.substr(pos_, end + 1 - pos_));
      pos_ = end + 1;
      return out;
    }
    if (c == '{') return ReadSet();
    if (c == '[') return ReadSeq('[', ']');
    if (c == '(') return ReadTuple("");
    std::string token = ReadToken();
    if (token.empty()) return std::nullopt;
    if (pos_ < s_.size() && s_[pos_] == '(') {
      if (token == "date") {
        size_t end = s_.find(')', pos_);
        if (end == std::string_view::npos) return std::nullopt;
        std::string out = token + std::string(s_.substr(pos_, end + 1 - pos_));
        pos_ = end + 1;
        return out;
      }
      return ReadTuple(token);
    }
    return token;
  }

  std::optional<std::string> ReadSet() {
    ++pos_;  // '{'
    std::map<std::string, int64_t> elems;
    SkipSpaces();
    if (Consume('}')) return std::string("{}");
    while (true) {
      std::optional<std::string> v = Read();
      if (!v) return std::nullopt;
      int64_t count = 1;
      SkipSpaces();
      if (pos_ + 1 < s_.size() && s_[pos_] == 'x' &&
          std::isdigit(static_cast<unsigned char>(s_[pos_ + 1]))) {
        ++pos_;
        std::string digits = ReadToken();
        auto [p, ec] = std::from_chars(digits.data(),
                                       digits.data() + digits.size(), count);
        if (ec != std::errc() || p != digits.data() + digits.size()) {
          return std::nullopt;
        }
      }
      elems[*v] += count;
      SkipSpaces();
      if (Consume('}')) break;
      if (!Consume(',')) return std::nullopt;
    }
    std::string out = "{";
    bool first = true;
    for (const auto& [v, n] : elems) {
      if (!first) out += ", ";
      first = false;
      out += v;
      if (n != 1) out += " x" + std::to_string(n);
    }
    return out + "}";
  }

  std::optional<std::string> ReadSeq(char open, char close) {
    ++pos_;
    std::string out(1, open);
    SkipSpaces();
    if (Consume(close)) return out + close;
    bool first = true;
    while (true) {
      std::optional<std::string> v = Read();
      if (!v) return std::nullopt;
      if (!first) out += ", ";
      first = false;
      out += *v;
      SkipSpaces();
      if (Consume(close)) break;
      if (!Consume(',')) return std::nullopt;
    }
    return out + close;
  }

  std::optional<std::string> ReadTuple(const std::string& tag) {
    ++pos_;  // '('
    // Field order is not part of a tuple value (record equality, which is
    // what makes TUP_CAT commutative), so fields are sorted by name.
    std::vector<std::string> fields;
    SkipSpaces();
    while (!Consume(')')) {
      if (!fields.empty() && !Consume(',')) return std::nullopt;
      SkipSpaces();
      std::string field = ReadToken();
      if (field.empty() || !Consume(':')) return std::nullopt;
      std::optional<std::string> v = Read();
      if (!v) return std::nullopt;
      fields.push_back(field + ": " + *v);
      SkipSpaces();
    }
    std::sort(fields.begin(), fields.end());
    std::string out = tag + "(";
    for (size_t i = 0; i < fields.size(); ++i) {
      out += (i ? ", " : "") + fields[i];
    }
    return out + ")";
  }

  std::string ReadToken() {
    size_t start = pos_;
    while (pos_ < s_.size()) {
      char c = s_[pos_];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '.' || c == '+' || c == '-' || c == '@' || c == ':') {
        // ':' belongs to a ref (@type:serial) but ends a field name.
        if (c == ':' && (start == pos_ || s_[start] != '@')) break;
        ++pos_;
      } else {
        break;
      }
    }
    return std::string(s_.substr(start, pos_ - start));
  }

  void SkipSpaces() {
    while (pos_ < s_.size() && s_[pos_] == ' ') ++pos_;
  }
  bool Consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string_view s_;
  size_t pos_ = 0;
  int depth_ = 0;
};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::optional<std::string> Canonical(std::string_view rendered) {
  CanonReader r(rendered);
  std::optional<std::string> out = r.Read();
  if (!out || !r.AtEnd()) return std::nullopt;
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "null";
  return std::string(buf, p);
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

uint64_t Tracer::Open(const char* name, uint64_t parent, uint64_t stmt) {
  if (!enabled_) return 0;
  Span s;
  s.name = name;
  s.start_ns = NowNs();
  s.id = (tag_ << 40) | (spans_.size() + 1);
  s.parent = parent;
  s.stmt = stmt;
  spans_.push_back(s);
  return s.id;
}

void Tracer::Close(uint64_t id) {
  if (!enabled_ || id == 0) return;
  spans_[(id & ((uint64_t{1} << 40) - 1)) - 1].end_ns = NowNs();
}

std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, SelfTime> out;
  for (const Span& s : spans) {
    auto it = child_ns.find(s.id);
    int64_t self = s.end_ns - s.start_ns - (it == child_ns.end() ? 0 : it->second);
    SelfTime& st = out[s.name];
    ++st.count;
    st.self_us += static_cast<double>(self) / 1e3;
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\": %s, \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"id\": %llu, \"parent\": %llu, \"stmt\": %llu}\n",
                 JsonString(s.name).c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.stmt));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
