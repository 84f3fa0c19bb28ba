/**
 * @file
 * JSON string escaping implementation.
 */

#include "common/json.hh"

#include "common/logging.hh"

namespace bvf
{

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                out += strFormat("\\u%04x",
                                 static_cast<unsigned>(
                                     static_cast<unsigned char>(c)));
            } else {
                // Includes UTF-8 continuation/lead bytes: passed
                // through verbatim.
                out += c;
            }
            break;
        }
    }
    return out;
}

std::string
jsonQuote(std::string_view s)
{
    // Appended in steps, as in Error::describe.
    std::string out = "\"";
    out += jsonEscape(s);
    out += '"';
    return out;
}

} // namespace bvf
