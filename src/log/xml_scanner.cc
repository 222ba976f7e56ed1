#include "log/xml_scanner.h"

#include <array>
#include <cstdint>
#include <cstring>
#include <exception>
#include <istream>

#include "util/string_util.h"

namespace ems {

namespace {

constexpr size_t kChunkBytes = 64 * 1024;

// Byte classes the tag parser stops at. kSpace is std::isspace in the "C"
// locale; a name ends at space, '>' or '/', a key at space or '='.
enum : uint8_t { kSpace = 1, kNameEnd = 2, kKeyEnd = 4 };

constexpr std::array<uint8_t, 256> kByteClass = [] {
  std::array<uint8_t, 256> t{};
  for (char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    t[static_cast<unsigned char>(c)] = kSpace | kNameEnd | kKeyEnd;
  }
  t['>'] = kNameEnd;
  t['/'] = kNameEnd;
  t['='] = kKeyEnd;
  return t;
}();

// The first byte of [p, end) in one of the classes `stop`, or end.
inline const char* SkipUntilClass(const char* p, const char* end,
                                  uint8_t stop) {
  while (p != end &&
         (kByteClass[static_cast<unsigned char>(*p)] & stop) == 0) {
    ++p;
  }
  return p;
}

inline const char* SkipSpace(const char* p, const char* end) {
  while (p != end && (kByteClass[static_cast<unsigned char>(*p)] & kSpace)) {
    ++p;
  }
  return p;
}

Status NeedMore(bool* more) {
  *more = true;
  return Status::OK();
}

}  // namespace

XmlScanner::XmlScanner(std::istream& in)
    : src_(in.good() ? in.rdbuf() : nullptr), buf_(kChunkBytes) {}

bool XmlScanner::Fill() {
  if (src_ == nullptr) return false;
  if (end_ == buf_.size()) {
    if (tok_ == 0) {
      buf_.resize(buf_.size() * 2);
    } else {
      std::memmove(buf_.data(), buf_.data() + tok_, end_ - tok_);
      end_ -= tok_;
      pos_ -= tok_;
      tok_ = 0;
    }
  }
  std::streamsize got = 0;
  try {
    got = src_->sgetn(buf_.data() + end_,
                      static_cast<std::streamsize>(buf_.size() - end_));
  } catch (const std::exception& e) {  // e.g. std::filebuf on a directory
    read_status_ = Status::IOError(std::string("read failed: ") + e.what());
  }
  if (got <= 0) {
    src_ = nullptr;
    return false;
  }
  end_ += static_cast<size_t>(got);
  return true;
}

int XmlScanner::Peek() {
  if (pos_ == end_ && !Fill()) return -1;
  return static_cast<unsigned char>(buf_[pos_]);
}

bool XmlScanner::SkipToTagOpen() {
  while (true) {
    const void* at = std::memchr(buf_.data() + pos_, '<', end_ - pos_);
    if (at != nullptr) {
      pos_ = static_cast<size_t>(static_cast<const char*>(at) - buf_.data());
      return true;
    }
    pos_ = end_;
    if (!Fill()) return false;
  }
}

Status XmlScanner::SkipPast(std::string_view terminator) {
  while (true) {
    const std::string_view avail(buf_.data() + pos_, end_ - pos_);
    const size_t at = avail.find(terminator);
    if (at != std::string_view::npos) {
      pos_ += at + terminator.size();
      return Status::OK();
    }
    // The last bytes may begin a terminator the next chunk completes;
    // the rest is never read again, so the refill does not carry it.
    if (avail.size() >= terminator.size()) {
      pos_ = end_ - (terminator.size() - 1);
    }
    tok_ = pos_;
    if (!Fill()) {
      return Status::ParseError("unterminated markup (expected '" +
                                std::string(terminator) + "')");
    }
  }
}

Status XmlScanner::Next() {
  Status st = ScanTag();
  // A failed read ends the input inside this call, so it is what ended
  // the scan: report it, not the truncation it caused.
  return read_status_.ok() ? st : read_status_;
}

Status XmlScanner::ScanTag() {
  spilled_text_.clear();
  tok_ = pos_;
  while (true) {
    if (!SkipToTagOpen()) return Status::NotFound("eof");
    text_end_ = pos_ - tok_;
    ++pos_;
    const int c = Peek();
    if (c != '?' && c != '!') break;
    // Markup inside the text: keep the text before it, skip the markup
    // without carrying it, and go on with the text after it.
    spilled_text_ += Text();
    if (c == '?') {  // processing instruction
      EMS_RETURN_NOT_OK(SkipPast("?>"));
    } else {  // comment, doctype, or CDATA
      ++pos_;
      EMS_RETURN_NOT_OK(SkipPast(Peek() == '-' ? "-->" : ">"));
    }
    tok_ = pos_;
  }
  while (true) {
    bool more = false;
    Status st = ParseTag(&more);
    if (!more) return st;
    // Read until the tag's buffered bytes have doubled or the buffer is
    // full: however few bytes each read returns, the parses of one tag
    // then cost time linear in its length.
    const size_t had = end_ - pos_;
    while (Fill() && end_ - pos_ < 2 * had && end_ < buf_.size()) {
    }
  }
}

Status XmlScanner::ParseTag(bool* more) {
  const char* p = buf_.data() + pos_;
  const char* const end = buf_.data() + end_;
  // Each check below that meets the end of the buffered bytes first asks
  // for more while input is left; at end of input it reads the end as
  // end of input and fails as the reference reader does.
  const auto starved = [&] { return p == end && src_ != nullptr; };
  tag_.closing = p != end && *p == '/';
  if (tag_.closing) ++p;
  const char* const name = p;
  p = SkipUntilClass(p, end, kNameEnd);
  if (starved()) return NeedMore(more);
  if (p == name) return Status::ParseError("empty element name");
  tag_.name = std::string_view(name, static_cast<size_t>(p - name));
  tag_.self_closing = false;
  tag_.attrs.clear();
  while (true) {
    p = SkipSpace(p, end);
    if (starved()) return NeedMore(more);
    if (p == end) return Status::ParseError("unterminated tag");
    if (*p == '>') {
      ++p;
      break;
    }
    if (*p == '/') {
      ++p;
      if (starved()) return NeedMore(more);
      if (p == end || *p != '>') return Status::ParseError("malformed '/>'");
      ++p;
      tag_.self_closing = true;
      break;
    }
    const char* const key_begin = p;
    p = SkipUntilClass(p, end, kKeyEnd);
    const std::string_view key(key_begin, static_cast<size_t>(p - key_begin));
    p = SkipSpace(p, end);
    if (starved()) return NeedMore(more);
    if (p == end || *p != '=') {
      return Status::ParseError("attribute '" + std::string(key) +
                                "' missing '='");
    }
    p = SkipSpace(p + 1, end);
    if (starved()) return NeedMore(more);
    if (p == end || (*p != '"' && *p != '\'')) {
      return Status::ParseError("attribute '" + std::string(key) +
                                "' missing quote");
    }
    const char quote = *p++;
    const char* const close = static_cast<const char*>(
        std::memchr(p, quote, static_cast<size_t>(end - p)));
    if (close == nullptr) {
      p = end;
      if (starved()) return NeedMore(more);
      return Status::ParseError("unterminated attribute value");
    }
    tag_.attrs.push_back(
        {key, std::string_view(p, static_cast<size_t>(close - p))});
    p = close + 1;
  }
  pos_ = static_cast<size_t>(p - buf_.data());
  return Status::OK();
}

void XmlScanner::PrecedingText(std::string* out) const {
  if (spilled_text_.empty()) {
    Unescape(Trim(Text()), out);
    return;
  }
  // Markup split the text: entities may span the split, so join first.
  Unescape(Trim(spilled_text_ + std::string(Text())), out);
}

void XmlScanner::Unescape(std::string_view s, std::string* out) {
  out->clear();
  const size_t amp = s.find('&');
  if (amp == std::string_view::npos) {
    out->assign(s);
    return;
  }
  out->reserve(s.size());
  out->append(s.substr(0, amp));
  // The first ';' at or after the last search start stays the first one
  // at or after i until i passes it, so each byte is searched once.
  size_t semi = s.find(';', amp);
  for (size_t i = amp; i < s.size(); ++i) {
    if (s[i] != '&') {
      out->push_back(s[i]);
      continue;
    }
    if (semi < i) semi = s.find(';', i);
    if (semi == std::string_view::npos) {
      out->push_back(s[i]);
      continue;
    }
    const std::string_view ent = s.substr(i + 1, semi - i - 1);
    if (ent == "amp") out->push_back('&');
    else if (ent == "lt") out->push_back('<');
    else if (ent == "gt") out->push_back('>');
    else if (ent == "quot") out->push_back('"');
    else if (ent == "apos") out->push_back('\'');
    else {
      out->push_back('&');
      continue;  // unknown entity: keep literal '&', do not skip
    }
    i = semi;
  }
}

}  // namespace ems
