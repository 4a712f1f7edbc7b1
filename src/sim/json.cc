#include "sim/json.hh"

#include <cmath>

#include "sim/logging.hh"

namespace rpcvalet::sim {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strfmt("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

void
jsonNumber(std::FILE *f, double v)
{
    if (std::isfinite(v))
        std::fprintf(f, "%.10g", v);
    else
        std::fputs("null", f);
}

} // namespace rpcvalet::sim
