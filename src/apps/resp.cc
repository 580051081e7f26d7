#include "src/apps/resp.h"

#include <charconv>
#include <stdexcept>

namespace e2e {
namespace {

size_t DigitCount(size_t v) {
  size_t digits = 1;
  while (v >= 10) {
    v /= 10;
    ++digits;
  }
  return digits;
}

int64_t ParseInt(std::string_view s) {
  int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw std::runtime_error("resp: bad integer: " + std::string(s));
  }
  return value;
}

// Appends "<type><body>\r\n" piece by piece: the equivalent
// `"<type>" + std::string(...)` trips a false-positive -Wrestrict in GCC 12.
void AppendLine(std::string& out, char type, std::string_view body) {
  out.append(1, type).append(body).append("\r\n");
}

std::string Line(char type, std::string_view body) {
  std::string out;
  AppendLine(out, type, body);
  return out;
}

}  // namespace

size_t RespBulkSize(size_t payload_len) {
  return 1 + DigitCount(payload_len) + 2 + payload_len + 2;
}

size_t RespArrayHeaderSize(size_t n) { return 1 + DigitCount(n) + 2; }

size_t RespSetCommandSize(size_t key_len, size_t value_len) {
  return RespArrayHeaderSize(3) + RespBulkSize(3) + RespBulkSize(key_len) +
         RespBulkSize(value_len);
}

size_t RespGetCommandSize(size_t key_len) {
  return RespArrayHeaderSize(2) + RespBulkSize(3) + RespBulkSize(key_len);
}

size_t RespBulkReplySize(size_t value_len) { return RespBulkSize(value_len); }

std::string RespEncodeCommand(const std::vector<std::string_view>& args) {
  std::string out;
  AppendLine(out, '*', std::to_string(args.size()));
  for (std::string_view arg : args) {
    AppendLine(out, '$', std::to_string(arg.size()));
    out.append(arg);
    out += "\r\n";
  }
  return out;
}

std::string RespEncodeSimpleString(std::string_view s) { return Line('+', s); }

std::string RespEncodeError(std::string_view msg) { return Line('-', msg); }

std::string RespEncodeInteger(int64_t v) { return Line(':', std::to_string(v)); }

std::string RespEncodeBulk(std::string_view payload) {
  std::string out = Line('$', std::to_string(payload.size()));
  out.append(payload);
  out += "\r\n";
  return out;
}

std::string RespEncodeNullBulk() { return "$-1\r\n"; }

void RespParser::Feed(std::string_view bytes) { buffer_.append(bytes); }

void RespParser::Compact() {
  if (pos_ > 0 && pos_ == buffer_.size()) {
    buffer_.clear();
    pos_ = 0;
  } else if (pos_ > 64 * 1024) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
}

std::optional<std::string_view> RespParser::LineAt(size_t& pos) const {
  const size_t eol = buffer_.find("\r\n", pos);
  if (eol == std::string::npos) {
    return std::nullopt;
  }
  std::string_view line(buffer_.data() + pos, eol - pos);
  pos = eol + 2;
  return line;
}

std::optional<RespValue> RespParser::ParseAt(size_t& pos) const {
  if (pos >= buffer_.size()) {
    return std::nullopt;
  }
  const char type = buffer_[pos];
  size_t cursor = pos + 1;
  const std::optional<std::string_view> line = LineAt(cursor);
  if (!line.has_value()) {
    return std::nullopt;
  }
  RespValue value;
  switch (type) {
    case '+':
      value.kind = RespValue::Kind::kSimpleString;
      value.str = *line;
      break;
    case '-':
      value.kind = RespValue::Kind::kError;
      value.str = *line;
      break;
    case ':':
      value.kind = RespValue::Kind::kInteger;
      value.integer = ParseInt(*line);
      break;
    case '$': {
      const int64_t len = ParseInt(*line);
      if (len < 0) {
        value.kind = RespValue::Kind::kNullBulk;
        break;
      }
      if (buffer_.size() - cursor < static_cast<size_t>(len) + 2) {
        return std::nullopt;
      }
      value.kind = RespValue::Kind::kBulkString;
      value.str = buffer_.substr(cursor, len);
      if (buffer_.compare(cursor + len, 2, "\r\n") != 0) {
        throw std::runtime_error("resp: bulk string missing CRLF terminator");
      }
      cursor += len + 2;
      break;
    }
    case '*': {
      const int64_t n = ParseInt(*line);
      if (n < 0) {
        throw std::runtime_error("resp: negative array length");
      }
      value.kind = RespValue::Kind::kArray;
      value.array.reserve(n);
      for (int64_t i = 0; i < n; ++i) {
        std::optional<RespValue> element = ParseAt(cursor);
        if (!element.has_value()) {
          return std::nullopt;
        }
        value.array.push_back(std::move(*element));
      }
      break;
    }
    default:
      throw std::runtime_error(std::string("resp: unknown type byte '") + type + "'");
  }
  pos = cursor;
  return value;
}

std::optional<RespValue> RespParser::TryParse() {
  size_t cursor = pos_;
  std::optional<RespValue> value = ParseAt(cursor);
  if (value.has_value()) {
    pos_ = cursor;
    Compact();
  }
  return value;
}

}  // namespace e2e
