#include "log/xml_scanner.h"

#include <cstring>
#include <exception>
#include <istream>

#include "util/string_util.h"

namespace ems {

namespace {

constexpr size_t kChunkBytes = 64 * 1024;

// std::isspace in the "C" locale.
bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

}  // namespace

XmlScanner::XmlScanner(std::istream& in)
    : src_(in.good() ? in.rdbuf() : nullptr), buf_(kChunkBytes) {}

const std::string_view* XmlScanner::Tag::Find(std::string_view key) const {
  for (const Attribute& a : attrs) {
    if (a.key == key) return &a.raw_value;
  }
  return nullptr;
}

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

template <typename Pred>
bool XmlScanner::SkipWhile(Pred pred) {
  while (true) {
    while (pos_ < end_ && pred(buf_[pos_])) ++pos_;
    if (pos_ < end_) return true;
    if (!Fill()) return false;
  }
}

bool XmlScanner::SkipTo(char c) {
  while (true) {
    const void* at = std::memchr(buf_.data() + pos_, c, end_ - pos_);
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
    if (!SkipTo('<')) return Status::NotFound("eof");
    text_end_ = Offset();
    ++pos_;
    const int c = Peek();
    if (c != '?' && c != '!') return ParseTag();
    // Markup inside the text: keep the text before it, skip the markup
    // without carrying it, and go on with the text after it.
    spilled_text_ += View(0, text_end_);
    if (c == '?') {  // processing instruction
      EMS_RETURN_NOT_OK(SkipPast("?>"));
    } else {  // comment, doctype, or CDATA
      ++pos_;
      EMS_RETURN_NOT_OK(SkipPast(Peek() == '-' ? "-->" : ">"));
    }
    tok_ = pos_;
  }
}

Status XmlScanner::ParseTag() {
  tag_.closing = false;
  tag_.self_closing = false;
  if (Peek() == '/') {
    ++pos_;
    tag_.closing = true;
  }
  const size_t name_begin = Offset();
  SkipWhile([](char c) { return !IsSpace(c) && c != '>' && c != '/'; });
  const size_t name_end = Offset();
  if (name_end == name_begin) return Status::ParseError("empty element name");
  spans_.clear();
  while (true) {
    if (!SkipWhile(IsSpace)) return Status::ParseError("unterminated tag");
    if (buf_[pos_] == '>') {
      ++pos_;
      break;
    }
    if (buf_[pos_] == '/') {
      ++pos_;
      if (Peek() != '>') return Status::ParseError("malformed '/>'");
      ++pos_;
      tag_.self_closing = true;
      break;
    }
    const size_t key_begin = Offset();
    SkipWhile([](char c) { return c != '=' && !IsSpace(c); });
    const size_t key_end = Offset();
    SkipWhile(IsSpace);
    if (Peek() != '=') {
      return Status::ParseError("attribute '" +
                                std::string(View(key_begin, key_end)) +
                                "' missing '='");
    }
    ++pos_;
    SkipWhile(IsSpace);
    const int quote = Peek();
    if (quote != '"' && quote != '\'') {
      return Status::ParseError("attribute '" +
                                std::string(View(key_begin, key_end)) +
                                "' missing quote");
    }
    ++pos_;
    const size_t value_begin = Offset();
    if (!SkipTo(static_cast<char>(quote))) {
      return Status::ParseError("unterminated attribute value");
    }
    spans_.push_back({key_begin, key_end, value_begin, Offset()});
    ++pos_;
  }
  // No Fill can move the buffer before the next Next(): the views hold.
  tag_.name = View(name_begin, name_end);
  tag_.attrs.clear();
  for (const AttributeSpan& s : spans_) {
    tag_.attrs.push_back(
        {View(s.key_begin, s.key_end), View(s.value_begin, s.value_end)});
  }
  return Status::OK();
}

void XmlScanner::PrecedingText(std::string* out) const {
  if (spilled_text_.empty()) {
    Unescape(Trim(View(0, text_end_)), out);
    return;
  }
  // Markup split the text: entities may span the split, so join first.
  Unescape(Trim(spilled_text_ + std::string(View(0, text_end_))), out);
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
