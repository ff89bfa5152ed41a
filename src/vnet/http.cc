#include "src/vnet/http.h"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace vnet {
namespace {

std::string ToLower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) {
    ++b;
  }
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r')) {
    --e;
  }
  return s.substr(b, e - b);
}

// Every CR inside the head must be the start of a CRLF and every LF the end
// of one.  A bare CR (or bare LF) is how two parsers that "helpfully" accept
// loose line endings end up framing one stream two different ways — the
// request-smuggling primitive — so on a reused connection it is a hard 400.
bool HeadLineEndingsStrict(const std::string& data, size_t head_end) {
  for (size_t i = 0; i < head_end + 4 && i < data.size(); ++i) {
    if (data[i] == '\r' && (i + 1 >= data.size() || data[i + 1] != '\n')) {
      return false;
    }
    if (data[i] == '\n' && (i == 0 || data[i - 1] != '\r')) {
      return false;
    }
  }
  return true;
}

// Strict non-empty digit-string parse with an overflow guard; Content-Length
// is attacker-controlled framing state, so anything non-canonical fails.
bool ParseContentLength(const std::string& value, uint64_t* out) {
  if (value.empty() || value.size() > 18) {
    return false;
  }
  uint64_t want = 0;
  for (char c : value) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      return false;
    }
    want = want * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = want;
  return true;
}

// Splits the header lines between the first line's end at `pos` and the
// head's end at `head_end` into trimmed name/value pairs.  A folded line
// (obsolete line folding) is refused: two peers frame such a head two ways,
// depending on whether they implement it.  So is a line without a colon.
vbase::Status ParseHeaderLines(const std::string& data, size_t pos, size_t head_end,
                               std::vector<std::pair<std::string, std::string>>* headers) {
  while (pos < head_end) {
    const size_t line_end = std::min(data.find("\r\n", pos), head_end);
    const std::string line = data.substr(pos, line_end - pos);
    pos = line_end + 2;
    if (line[0] == ' ' || line[0] == '\t') {
      return vbase::InvalidArgument("folded header line");
    }
    const size_t colon = line.find(':');
    if (colon == std::string::npos) {
      return vbase::InvalidArgument("malformed header line: " + line);
    }
    headers->emplace_back(Trim(line.substr(0, colon)), Trim(line.substr(colon + 1)));
  }
  return vbase::Status::Ok();
}

}  // namespace

std::string HttpRequest::Header(const std::string& name) const {
  const std::string lower = ToLower(name);
  for (const auto& [key, value] : headers) {
    if (ToLower(key) == lower) {
      return value;
    }
  }
  return "";
}

bool HttpRequest::HasHeader(const std::string& name) const {
  const std::string lower = ToLower(name);
  for (const auto& [key, value] : headers) {
    if (ToLower(key) == lower) {
      return true;
    }
  }
  return false;
}

namespace {

// Parses and validates the head of the first request in `data`, leaving the
// declared body length in `*want` (with `*have_length` saying whether a
// Content-Length header was present at all).  Shared by FrameRequest and
// RequestBytesNeeded so the two can never frame a stream differently.
vbase::Status ParseHead(const std::string& data, HttpRequest* out, size_t* head_end_out,
                        uint64_t* want, bool* have_length) {
  // The size limits come first, as in the guests: they see only the first
  // kMaxHeadBytes of a head, so a longer one is a 413 even when malformed.
  const size_t head_end = data.find("\r\n\r\n");
  if (head_end == std::string::npos ? data.size() >= kMaxHeadBytes
                                    : head_end + 4 > kMaxHeadBytes) {
    return vbase::OutOfRange("request head longer than kMaxHeadBytes");
  }
  if (head_end == std::string::npos) {
    return vbase::FailedPrecondition("incomplete request head");
  }
  if (!HeadLineEndingsStrict(data, head_end)) {
    return vbase::InvalidArgument("bare CR or LF in request head");
  }
  *head_end_out = head_end;
  HttpRequest& req = *out;
  const size_t line_end = data.find("\r\n");
  const std::string request_line = data.substr(0, line_end);
  {
    std::istringstream is(request_line);
    if (!(is >> req.method >> req.target >> req.version)) {
      return vbase::InvalidArgument("malformed request line: " + request_line);
    }
    if (req.version.rfind("HTTP/", 0) != 0) {
      return vbase::InvalidArgument("bad HTTP version: " + req.version);
    }
  }
  VB_RETURN_IF_ERROR(ParseHeaderLines(data, line_end + 2, head_end, &req.headers));
  // Framing headers.  Transfer-Encoding is not implemented; accepting it
  // while framing by Content-Length is the classic TE.CL desync, so its
  // mere presence is a 400.  Duplicate Content-Length headers (even with
  // equal values) are likewise rejected rather than collapsed.
  *want = 0;
  *have_length = false;
  for (const auto& [key, value] : req.headers) {
    const std::string lower = ToLower(key);
    if (lower == "transfer-encoding") {
      return vbase::InvalidArgument("transfer-encoding not supported");
    }
    if (lower == "content-length") {
      uint64_t parsed = 0;
      if (!ParseContentLength(value, &parsed)) {
        return vbase::InvalidArgument("bad content-length");
      }
      if (*have_length) {
        return vbase::InvalidArgument("conflicting content-length");
      }
      *have_length = true;
      *want = parsed;
    }
  }
  if (*want > kMaxBodyBytes) {
    return vbase::OutOfRange("declared body longer than kMaxBodyBytes");
  }
  return vbase::Status::Ok();
}

}  // namespace

vbase::Result<FramedRequest> FrameRequest(const std::string& data) {
  FramedRequest framed;
  size_t head_end = 0;
  uint64_t want = 0;
  bool have_length = false;
  VB_RETURN_IF_ERROR(ParseHead(data, &framed.request, &head_end, &want, &have_length));
  const size_t body_start = head_end + 4;
  if (have_length) {
    if (data.size() - body_start < want) {
      return vbase::FailedPrecondition("incomplete body");
    }
    framed.request.body = data.substr(body_start, want);
  }
  framed.consumed = body_start + want;
  return framed;
}

vbase::Result<size_t> RequestBytesNeeded(const std::string& data) {
  HttpRequest req;
  size_t head_end = 0;
  uint64_t want = 0;
  bool have_length = false;
  VB_RETURN_IF_ERROR(ParseHead(data, &req, &head_end, &want, &have_length));
  return head_end + 4 + want;
}

int RejectStatus(const vbase::Status& framing) {
  return framing.code() == vbase::Code::kOutOfRange ? 413 : 400;
}

bool WantKeepAlive(const HttpRequest& request) {
  // Tokenize the Connection header as a comma list; an explicit token wins
  // over the version default in both directions.
  bool saw_close = false;
  bool saw_keep_alive = false;
  std::istringstream is(ToLower(request.Header("connection")));
  std::string token;
  while (std::getline(is, token, ',')) {
    token = Trim(token);
    if (token == "close") {
      saw_close = true;
    } else if (token == "keep-alive") {
      saw_keep_alive = true;
    }
  }
  if (saw_close) {
    return false;
  }
  if (request.version == "HTTP/1.0") {
    return saw_keep_alive;
  }
  return true;  // HTTP/1.1+: persistent by default
}

vbase::Result<HttpResponseHead> FrameResponseHead(const std::string& data) {
  const size_t head_end = data.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    return vbase::FailedPrecondition("incomplete response head");
  }
  HttpResponseHead head;
  head.head_bytes = head_end + 4;
  const size_t line_end = data.find("\r\n");
  {
    const std::string status_line = data.substr(0, line_end);
    std::istringstream is(status_line);
    std::string status_token;
    if (!(is >> head.version >> status_token) ||
        head.version.rfind("HTTP/", 0) != 0) {
      return vbase::InvalidArgument("malformed status line: " + status_line);
    }
    for (char c : status_token) {
      if (!std::isdigit(static_cast<unsigned char>(c))) {
        return vbase::InvalidArgument("non-numeric status: " + status_token);
      }
    }
    if (status_token.empty() || status_token.size() > 5) {
      return vbase::InvalidArgument("bad status: " + status_token);
    }
    head.status = std::stoi(status_token);
  }
  VB_RETURN_IF_ERROR(ParseHeaderLines(data, line_end + 2, head_end, &head.headers));
  for (const auto& [key, value] : head.headers) {
    if (ToLower(key) == "content-length") {
      if (!ParseContentLength(value, &head.content_length)) {
        return vbase::InvalidArgument("bad response content-length");
      }
    }
  }
  return head;
}

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string BuildResponse(int status, const std::string& body,
                          const std::vector<std::pair<std::string, std::string>>& headers) {
  return BuildResponseWithReason(status, ReasonPhrase(status), body, headers);
}

std::string BuildResponseWithReason(int status, const std::string& reason,
                                    const std::string& body,
                                    const std::vector<std::pair<std::string, std::string>>& headers) {
  std::ostringstream os;
  os << "HTTP/1.1 " << status << " ";
  // The reason phrase may come from an untrusted detail string (a fault
  // message); a CR/LF — or any other control byte — embedded there would
  // terminate the status line early and let the remainder masquerade as
  // response headers.  Strip control characters rather than reject: the
  // phrase is informational only.
  for (const char c : reason) {
    if (static_cast<unsigned char>(c) >= 0x20 && c != 0x7f) {
      os << c;
    }
  }
  os << "\r\n";
  os << "Content-Length: " << body.size() << "\r\n";
  for (const auto& [key, value] : headers) {
    os << key << ": " << value << "\r\n";
  }
  os << "\r\n" << body;
  return os.str();
}

}  // namespace vnet
