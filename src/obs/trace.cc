#include "obs/trace.h"

#include <charconv>

#include "obs/clock.h"

namespace gpml {
namespace obs {

namespace {

/// Minimal JSON string escaping for span names and attribute values.
void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

template <typename Int>
void AppendInt(std::string* out, Int value) {
  char buf[24];
  char* end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  out->append(buf, end);
}

}  // namespace

int Trace::Begin(std::string name, int parent) {
  uint64_t now = MonotonicMicros();
  if (spans_.empty()) epoch_us_ = now;
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.start_us = now - epoch_us_;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void Trace::End(int span) {
  if (span < 0 || static_cast<size_t>(span) >= spans_.size()) return;
  Span& s = spans_[static_cast<size_t>(span)];
  uint64_t now = MonotonicMicros() - epoch_us_;
  s.duration_us = static_cast<int64_t>(now - s.start_us);
}

void Trace::Attr(int span, std::string key, std::string value) {
  if (span < 0 || static_cast<size_t>(span) >= spans_.size()) return;
  spans_[static_cast<size_t>(span)].attrs.emplace_back(std::move(key),
                                                       std::move(value));
}

int Trace::AddComplete(std::string name, int parent, uint64_t start_us,
                       uint64_t duration_us) {
  if (spans_.empty()) epoch_us_ = MonotonicMicros();
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.start_us = start_us;
  s.duration_us = static_cast<int64_t>(duration_us);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

uint64_t Trace::NowUs() const {
  if (spans_.empty()) return 0;
  return MonotonicMicros() - epoch_us_;
}

void Trace::Clear() {
  spans_.clear();
  epoch_us_ = 0;
}

const Span* Trace::Find(const std::string& name) const {
  for (const Span& s : spans_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

double Trace::TotalMs(const std::string& name) const {
  double total_us = 0;
  for (const Span& s : spans_) {
    if (s.name == name && s.duration_us >= 0) {
      total_us += static_cast<double>(s.duration_us);
    }
  }
  return total_us / 1e3;
}

std::string Trace::ToJsonLines() const {
  std::string out;
  out.reserve(spans_.size() * 96);
  for (const Span& s : spans_) {
    out += "{\"span\":";
    AppendJsonString(&out, s.name);
    out += ",\"parent\":";
    AppendInt(&out, s.parent);
    out += ",\"start_us\":";
    AppendInt(&out, s.start_us);
    out += ",\"dur_us\":";
    AppendInt(&out, s.duration_us);
    if (!s.attrs.empty()) {
      out += ",\"attrs\":{";
      for (size_t i = 0; i < s.attrs.size(); ++i) {
        if (i != 0) out.push_back(',');
        AppendJsonString(&out, s.attrs[i].first);
        out.push_back(':');
        AppendJsonString(&out, s.attrs[i].second);
      }
      out.push_back('}');
    }
    out += "}\n";
  }
  return out;
}

void StringTraceSink::Emit(const Trace& trace) {
  std::string lines = trace.ToJsonLines();
  std::lock_guard<std::mutex> lock(mu_);
  buffer_ += lines;
  ++count_;
}

std::string StringTraceSink::TakeOutput() {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = std::move(buffer_);
  buffer_.clear();
  return out;
}

size_t StringTraceSink::traces_emitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

void FileTraceSink::Emit(const Trace& trace) {
  std::string lines = trace.ToJsonLines();
  std::lock_guard<std::mutex> lock(mu_);
  std::fwrite(lines.data(), 1, lines.size(), out_);
  std::fflush(out_);
}

}  // namespace obs
}  // namespace gpml
