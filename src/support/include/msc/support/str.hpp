#ifndef MSC_SUPPORT_STR_HPP
#define MSC_SUPPORT_STR_HPP

#include <sstream>
#include <string>
#include <vector>

namespace msc {

/// Tiny string helpers shared by dumpers and the text emitter.
/// (std::format is not available in the toolchain's libstdc++.)

template <typename... Args>
std::string cat(Args&&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// Split on a single character; keeps empty fields.
std::vector<std::string> split(const std::string& s, char sep);

bool starts_with(const std::string& s, const std::string& prefix);

/// Left-pad with spaces to at least `width`.
std::string pad_left(const std::string& s, std::size_t width);
/// Right-pad with spaces to at least `width`.
std::string pad_right(const std::string& s, std::size_t width);

/// Fixed-point rendering with `digits` decimals (locale-independent).
std::string fmt_double(double v, int digits);

/// Escape `s` for embedding inside a JSON string literal. Quotes and
/// backslashes are backslash-escaped; U+0000..U+001F and U+007F become
/// \uXXXX (with \n/\t/\r/\b/\f short forms). Well-formed UTF-8 sequences
/// are copied verbatim, and each maximal ill-formed subpart (a stray
/// continuation byte, an overlong form, a surrogate, a value above
/// U+10FFFF, a truncated sequence) becomes U+FFFD, so the output is valid
/// UTF-8 JSON for any input and json::parse() returns `s` unchanged
/// whenever `s` is valid UTF-8. Every JSON emitter in the tree routes its
/// free-form keys and values (pass names, counter keys, file paths, error
/// messages) through this.
std::string json_escape(const std::string& s);

}  // namespace msc

#endif  // MSC_SUPPORT_STR_HPP
