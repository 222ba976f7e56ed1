// Small string helpers shared by parsing and reporting code.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace ems {

/// Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// ASCII lowercase copy.
std::string ToLower(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Formats a double with `precision` digits after the decimal point.
std::string FormatDouble(double value, int precision);

/// Escapes XML special characters (&, <, >, ", ').
std::string XmlEscape(std::string_view s);

/// Parses all of `text` as a T (int, long, long long, unsigned long,
/// unsigned long long or double): one number in T's range, finite, with
/// nothing before or after it — no whitespace, no '+', no sign on an
/// unsigned type. nullopt otherwise.
template <typename T>
std::optional<T> ParseNumber(std::string_view text);

/// ParseNumber for the value of the command-line flag --`flag`: sets
/// `*out`, or returns InvalidArgument naming the flag and the value.
template <typename T>
Status ParseFlagNumber(std::string_view flag, std::string_view text, T* out);

}  // namespace ems
