#include <cstdio>
#include <sstream>

#include "msc/support/coverage.hpp"
#include "msc/support/diag.hpp"
#include "msc/support/dot.hpp"
#include "msc/support/str.hpp"
#include "msc/support/value.hpp"

namespace msc {

// ------------------------------------------------------------- coverage

namespace {
CoverageSink* g_coverage_sink = nullptr;
}

void set_coverage_sink(CoverageSink* sink) { g_coverage_sink = sink; }
CoverageSink* coverage_sink() { return g_coverage_sink; }

std::uint32_t coverage_bucket(std::uint64_t v) {
  std::uint32_t b = 0;
  while (v) {
    ++b;
    v >>= 1;
  }
  return b;
}

// ---------------------------------------------------------------- Value

std::string Value::to_string() const {
  if (is_int()) return std::to_string(i);
  return fmt_double(f, 6);
}

// ----------------------------------------------------------------- diag

std::string SourceLoc::to_string() const {
  if (!valid()) return "<unknown>";
  return cat(line, ':', col);
}

CompileError::CompileError(SourceLoc loc, const std::string& message)
    : std::runtime_error(loc.to_string() + ": " + message), loc_(loc) {}

void Diagnostics::warn(SourceLoc loc, const std::string& message) {
  messages_.push_back(cat("warning: ", loc.to_string(), ": ", message));
}

void Diagnostics::error(SourceLoc loc, const std::string& message) {
  messages_.push_back(cat("error: ", loc.to_string(), ": ", message));
  ++error_count_;
}

std::string Diagnostics::joined() const { return join(messages_, "\n"); }

// ------------------------------------------------------------------ dot

DotWriter::DotWriter(const std::string& graph_name) {
  out_ << "digraph " << graph_name << " {\n"
       << "  node [shape=box, fontname=\"monospace\"];\n";
}

void DotWriter::node(const std::string& id, const std::string& label,
                     const std::string& extra_attrs) {
  out_ << "  \"" << escape(id) << "\" [label=\"" << escape(label) << "\"";
  if (!extra_attrs.empty()) out_ << ", " << extra_attrs;
  out_ << "];\n";
}

void DotWriter::edge(const std::string& from, const std::string& to,
                     const std::string& label) {
  out_ << "  \"" << escape(from) << "\" -> \"" << escape(to) << "\"";
  if (!label.empty()) out_ << " [label=\"" << escape(label) << "\"]";
  out_ << ";\n";
}

std::string DotWriter::finish() {
  if (!finished_) {
    out_ << "}\n";
    finished_ = true;
  }
  return out_.str();
}

std::string DotWriter::escape(const std::string& s) {
  std::string r;
  r.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') r.push_back('\\');
    if (c == '\n') {
      r += "\\n";
      continue;
    }
    r.push_back(c);
  }
  return r;
}

// ------------------------------------------------------------------ str

std::string join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string r;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) r += sep;
    r += parts[i];
  }
  return r;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

std::string pad_left(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return std::string(width - s.size(), ' ') + s;
}

std::string pad_right(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return s + std::string(width - s.size(), ' ');
}

std::string fmt_double(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

namespace {

/// Length of the well-formed UTF-8 sequence whose lead byte is at `s[i]`
/// (>= 0x80), or the negated length of its maximal ill-formed subpart
/// (Unicode §3.9, Table 3-7): the longest prefix of a well-formed
/// sequence that is present, and at least the lead byte itself.
int utf8_sequence(const std::string& s, std::size_t i) {
  const unsigned char lead = static_cast<unsigned char>(s[i]);
  int need;
  unsigned char lo = 0x80, hi = 0xBF;  // range of the second byte
  if (lead >= 0xC2 && lead <= 0xDF) {
    need = 1;
  } else if (lead >= 0xE0 && lead <= 0xEF) {
    need = 2;
    if (lead == 0xE0) lo = 0xA0;  // overlong
    if (lead == 0xED) hi = 0x9F;  // surrogates
  } else if (lead >= 0xF0 && lead <= 0xF4) {
    need = 3;
    if (lead == 0xF0) lo = 0x90;  // overlong
    if (lead == 0xF4) hi = 0x8F;  // above U+10FFFF
  } else {
    return -1;  // stray continuation byte, C0/C1 overlong lead, F5..FF
  }
  for (int k = 1; k <= need; ++k) {
    const unsigned char c =
        i + k < s.size() ? static_cast<unsigned char>(s[i + k]) : 0;
    if (c < lo || c > hi) return -k;
    lo = 0x80;
    hi = 0xBF;
  }
  return need + 1;
}

/// Printable ASCII other than '"' and '\\': copied without escaping.
bool json_plain(unsigned char c) {
  return c >= 0x20 && c < 0x7F && c != '"' && c != '\\';
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size();) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (json_plain(c)) {  // copy the whole plain run in one append
      std::size_t end = i + 1;
      while (end < s.size() && json_plain(static_cast<unsigned char>(s[end])))
        ++end;
      out.append(s, i, end - i);
      i = end;
      continue;
    }
    if (c >= 0x80) {
      const int len = utf8_sequence(s, i);
      if (len > 0) {
        out.append(s, i, static_cast<std::size_t>(len));
        i += static_cast<std::size_t>(len);
      } else {
        out += "\xEF\xBF\xBD";  // U+FFFD REPLACEMENT CHARACTER
        i += static_cast<std::size_t>(-len);
      }
      continue;
    }
    ++i;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {  // the other controls and U+007F
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      }
    }
  }
  return out;
}

}  // namespace msc
