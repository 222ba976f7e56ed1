// The istream tokenizer the XES and MXML readers used before the
// chunked-buffer XmlScanner (src/log/xml_scanner.h), kept with its two
// reader loops as the scanner's equivalence reference: for any byte
// string, ReadXes/ReadMxml must return the same Status message or an
// identical EventLog. It reads one char at a time through get/peek and
// builds a std::map of attributes per tag. Test code only; nothing in
// src/ links it.
#pragma once

#include <iosfwd>

#include "log/event_log.h"
#include "util/status.h"

namespace ems {
namespace testing {

/// Reference ReadXes.
Result<EventLog> ReferenceReadXes(std::istream& input);

/// Reference ReadMxml.
Result<EventLog> ReferenceReadMxml(std::istream& input);

}  // namespace testing
}  // namespace ems
