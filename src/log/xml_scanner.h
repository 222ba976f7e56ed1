// Pull-style XML tokenizer shared by the XES and MXML readers. It covers
// exactly the subset the event-log interchange formats use: element open,
// close and self-closing tags with quoted attributes (either quote kind),
// the character data before each tag, the five predefined entities, and
// skipped comments, processing instructions and doctypes. It is not a
// general XML parser.
//
// The input is read in fixed 64 KiB chunks into one contiguous buffer.
// A refill moves the unfinished token (a tag and the text before it) to
// the front, and the buffer grows only while one token is longer than
// the buffer, so memory stays at 64 KiB unless a single token is longer.
// Comments, PIs and doctypes are skipped without being carried, however
// long; text before one is kept aside as a string. The scanner jumps to
// each '<' with memchr and hands out names, keys and raw (still escaped)
// values as views into the buffer; entities are decoded and the
// preceding text is assembled only when a reader asks for them.
//
// A tag is parsed in one pass of pointer loops over the buffered bytes.
// When they end before the tag does and input is left, the parse stops,
// the buffer is refilled, and the tag is parsed again from its start; at
// end of input the same pass reports the error.
//
// Every malformed input ends in a ParseError: an unterminated tag,
// attribute value or markup, an empty element name, a missing '=' or
// quote, or a '/' not followed by '>'. A read that fails (std::filebuf
// throws on a directory) ends in an IOError.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace ems {

class XmlScanner {
 public:
  /// Reads from `in`'s stream buffer, which must outlive the scanner; a
  /// stream that is not good() reads as empty.
  explicit XmlScanner(std::istream& in);

  struct Attribute {
    std::string_view key;
    std::string_view raw_value;  ///< As written: entities not decoded.
  };

  /// The current tag. Every view in it stays valid until the next Next().
  struct Tag {
    std::string_view name;
    bool closing = false;       // </name>
    bool self_closing = false;  // <name ... />
    std::vector<Attribute> attrs;

    /// The raw value of the first attribute named `key` (later duplicates
    /// are ignored), or nullptr.
    const std::string_view* Find(std::string_view key) const {
      for (const Attribute& a : attrs) {
        if (a.key == key) return &a.raw_value;
      }
      return nullptr;
    }
  };

  /// Advances to the next tag: OK, NotFound at end of input, a
  /// ParseError, or an IOError when reading the stream failed.
  Status Next();

  /// The tag the last successful Next() reached.
  const Tag& tag() const { return tag_; }

  /// Sets `*out` to the character data between the previous tag and the
  /// current one, unescaped and trimmed of surrounding whitespace.
  void PrecedingText(std::string* out) const;

  /// Sets `*out` to `s` with the five predefined XML entities decoded;
  /// unknown entities are left as literal text.
  static void Unescape(std::string_view s, std::string* out);

 private:
  // Reads more input behind end_, first moving the token that starts at
  // tok_ to the front (or growing the buffer) when the buffer is full.
  // False at end of input.
  bool Fill();
  // The byte at pos_, reading more if needed; -1 at end of input.
  int Peek();
  // Advances pos_ to the next '<'; false at end of input.
  bool SkipToTagOpen();
  // Advances pos_ past the next occurrence of `terminator`, letting
  // refills drop the bytes it passes.
  Status SkipPast(std::string_view terminator);
  Status ScanTag();
  // Parses the tag whose name (or '/') starts at pos_ into tag_ and moves
  // pos_ past it. Sets `*more` instead when the buffered bytes end inside
  // the tag and input is left.
  Status ParseTag(bool* more);
  // The run of text before the current tag.
  std::string_view Text() const { return {buf_.data() + tok_, text_end_}; }

  std::streambuf* src_;  // null once exhausted
  Status read_status_;   // IOError once a read has thrown
  std::vector<char> buf_;
  size_t tok_ = 0;  // start of the token being read
  size_t pos_ = 0;  // scan cursor
  size_t end_ = 0;  // bytes of buf_ holding input
  Tag tag_;
  // The current tag's preceding text: the raw text before any markup
  // in it, then the run of text_end_ bytes from tok_ before the tag.
  std::string spilled_text_;
  size_t text_end_ = 0;
};

}  // namespace ems
