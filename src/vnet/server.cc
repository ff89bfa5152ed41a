#include "src/vnet/server.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <vector>

#include "src/base/clock.h"
#include "src/base/log.h"
#include "src/vcc/vcc.h"
#include "src/vnet/http.h"
#include "src/vrt/vlibc.h"

namespace vnet {
namespace {

// Snapshot keys of the two guest handlers: they boot different binaries, so
// they must never share a snapshot generation.
constexpr const char* kStaticHandlerKey = "http-static-handler";
constexpr const char* kKeepAliveHandlerKey = "http-keepalive-handler";

// The native handler's unit of incremental I/O: channel reads and response
// body chunks (not a size cap).
constexpr size_t kReadChunk = 2048;

// Executor key of a connection: its route's quota, class and breaker unit.
std::string RouteKey(const std::string& route) { return "route:" + route; }

}  // namespace

std::string EchoHandlerSource() {
  // The guest timestamps its startup milestones with in-guest rdtsc (the
  // paper takes the Figure 4 measurements "inside the virtual context") and
  // ships them back through return_data after the last milestone.
  return R"vc(
int main() {
  char buf[1024];
  int mb[3];
  int n;
  mb[0] = __rdtsc();          // milestone: reached C code (server main)
  n = recv(buf, 1023);
  mb[1] = __rdtsc();          // milestone: request received (recv returned)
  if (n > 0) {
    send(buf, n);
  }
  mb[2] = __rdtsc();          // milestone: response sent (send returned)
  return_data(mb, sizeof(int) * 3);
  return n;
}
)vc";
}

namespace {

// The request-head rules both guests share (scans are bounded to the header
// block, so body bytes can never satisfy a header rule).
std::string HandlerHelpersSource() {
  return R"vc(
int parse_path(char *req, char *path) {
  int i;
  int j;
  i = 0;
  while (req[i] && req[i] != ' ') {
    i = i + 1;
  }
  if (!req[i]) {
    return -1;
  }
  i = i + 1;
  j = 0;
  while (req[i] && req[i] != ' ' && j < 255) {
    path[j] = req[i];
    i = i + 1;
    j = j + 1;
  }
  path[j] = 0;
  if (j == 0) {
    return -1;
  }
  return j;
}

int vn_lc(int c) {
  if (c >= 'A' && c <= 'Z') {
    return c + 32;
  }
  return c;
}

// Scans [from, n) for CRLFCRLF and returns its offset, -1 if absent (the
// keep-alive guest resumes a scan 3 bytes before the last receive's end, so
// a terminator split across receives is still found).
int vn_headers_end_from(char *req, int from, int n) {
  int i;
  i = from;
  if (i < 0) {
    i = 0;
  }
  while (i + 3 < n) {
    if (req[i] == 13 && req[i + 1] == 10 && req[i + 2] == 13 && req[i + 3] == 10) {
      return i;
    }
    i = i + 1;
  }
  return 0 - 1;
}

// Single-pass head parse over [0, he).  Fills out[5]:
//   out[0] = head valid (request-line shape + a colon in every header line)
//   out[1] = version is HTTP/1.1
//   out[2] = a Host header is present
//   out[3] = Content-Length value (first match; the host edge rejects
//            conflicting duplicates before forwarding)
//   out[4] = Connection: 0 close, 1 keep-alive, 2 absent (last header wins)
// Header names match case-insensitively, and spaces or tabs between a name
// and its colon are trimmed, as the host parser does.
// Returns out[0].
int vn_parse_head(char *req, int he, int *out) {
  int i;
  int ls;
  int colon;
  int nl;
  int v;
  int close_tok;
  int keep_tok;
  out[0] = 0;
  out[1] = 0;
  out[2] = 0;
  out[3] = 0;
  out[4] = 2;
  i = 0;
  while (i < he && req[i] != ' ' && req[i] != 9 && req[i] != 13) {
    i = i + 1;
  }
  if (i == 0 || i >= he || req[i] == 13) {
    return 0;
  }
  while (i < he && (req[i] == ' ' || req[i] == 9)) {
    i = i + 1;
  }
  if (i >= he || req[i] == 13) {
    return 0;
  }
  while (i < he && req[i] != ' ' && req[i] != 9 && req[i] != 13) {
    i = i + 1;
  }
  if (i >= he || req[i] == 13) {
    return 0;
  }
  while (i < he && (req[i] == ' ' || req[i] == 9)) {
    i = i + 1;
  }
  if (i + 4 >= he) {
    return 0;
  }
  if (!(req[i] == 'H' && req[i + 1] == 'T' && req[i + 2] == 'T' && req[i + 3] == 'P' &&
        req[i + 4] == '/')) {
    return 0;
  }
  if (i + 7 < he && req[i + 5] == '1' && req[i + 6] == '.' && req[i + 7] == '1') {
    if (i + 8 >= he || req[i + 8] == 13 || req[i + 8] == ' ' || req[i + 8] == 9) {
      out[1] = 1;
    }
  }
  while (i < he && req[i] != 13) {
    i = i + 1;
  }
  while (i < he) {
    i = i + 2;
    if (i >= he) {
      break;
    }
    ls = i;
    colon = 0 - 1;
    while (i < he && req[i] != 13) {
      if (colon < 0 && req[i] == ':') {
        colon = i;
      }
      i = i + 1;
    }
    if (colon < 0) {
      return 0;
    }
    nl = colon - ls;
    // Space and tab sort below every name byte, so one load and compare of
    // the byte before the colon clears an ordinary line before the trim.
    if (req[colon - 1] <= ' ') {
      while (nl > 0 && (req[ls + nl - 1] == ' ' || req[ls + nl - 1] == 9)) {
        nl = nl - 1;
      }
    }
    if (nl == 4 && vn_lc(req[ls]) == 'h' && vn_lc(req[ls + 1]) == 'o' &&
        vn_lc(req[ls + 2]) == 's' && vn_lc(req[ls + 3]) == 't') {
      out[2] = 1;
    }
    if (nl == 14 && vn_lc(req[ls]) == 'c' && vn_lc(req[ls + 1]) == 'o' &&
        vn_lc(req[ls + 2]) == 'n' && vn_lc(req[ls + 3]) == 't' &&
        vn_lc(req[ls + 4]) == 'e' && vn_lc(req[ls + 5]) == 'n' &&
        vn_lc(req[ls + 6]) == 't' && req[ls + 7] == '-' && vn_lc(req[ls + 8]) == 'l' &&
        vn_lc(req[ls + 9]) == 'e' && vn_lc(req[ls + 10]) == 'n' &&
        vn_lc(req[ls + 11]) == 'g' && vn_lc(req[ls + 12]) == 't' &&
        vn_lc(req[ls + 13]) == 'h') {
      v = 0;
      ls = colon + 1;
      while (ls < i && (req[ls] == ' ' || req[ls] == 9)) {
        ls = ls + 1;
      }
      while (ls < i && req[ls] >= '0' && req[ls] <= '9') {
        v = v * 10 + (req[ls] - '0');
        ls = ls + 1;
      }
      out[3] = v;
    }
    if (nl == 10 && vn_lc(req[ls]) == 'c' && vn_lc(req[ls + 1]) == 'o' &&
        vn_lc(req[ls + 2]) == 'n' && vn_lc(req[ls + 3]) == 'n' &&
        vn_lc(req[ls + 4]) == 'e' && vn_lc(req[ls + 5]) == 'c' &&
        vn_lc(req[ls + 6]) == 't' && vn_lc(req[ls + 7]) == 'i' &&
        vn_lc(req[ls + 8]) == 'o' && vn_lc(req[ls + 9]) == 'n') {
      close_tok = 0;
      keep_tok = 0;
      v = colon + 1;
      while (v + 4 < i) {
        if (vn_lc(req[v]) == 'c' && vn_lc(req[v + 1]) == 'l' && vn_lc(req[v + 2]) == 'o' &&
            vn_lc(req[v + 3]) == 's' && vn_lc(req[v + 4]) == 'e') {
          close_tok = 1;
        }
        if (vn_lc(req[v]) == 'k' && vn_lc(req[v + 1]) == 'e' && vn_lc(req[v + 2]) == 'e' &&
            vn_lc(req[v + 3]) == 'p' && req[v + 4] == '-') {
          keep_tok = 1;
        }
        v = v + 1;
      }
      if (close_tok) {
        out[4] = 0;
      } else if (keep_tok) {
        out[4] = 1;
      } else {
        out[4] = 2;
      }
    }
  }
  out[0] = 1;
  return 1;
}
)vc";
}

}  // namespace

std::string StaticHandlerSource() {
  // Exactly the paper's seven host interactions (Section 6.3):
  // (1) recv request, (2) stat file, (3) open, (4) read, (5) send response,
  // (6) close, (7) exit.  Request validation (a complete header block
  // within kMaxHeadBytes, then vn_parse_head's rules and Host on HTTP/1.1)
  // runs inside the guest before any file interaction: a malformed request
  // costs three hypercalls (recv, send 400, exit) and never touches the
  // sandboxed filesystem.
  std::ostringstream os;
  os << HandlerHelpersSource() << R"vc(
int main() {
  char req[)vc" << kMaxHeadBytes + 1 << R"vc(];
  char path[256];
  char hdr[320];
  char num[24];
  int ph[5];
  char *body;
  char *resp;
  int n;
  int sz;
  int fd;
  int m;
  int hl;
  int he;
  n = recv(req, )vc" << kMaxHeadBytes << R"vc();                                   // (1)
  if (n <= 0) {
    exit(1);
    return 1;
  }
  req[n] = 0;
  he = vn_headers_end_from(req, 0, n);
  if (he < 0 && n >= )vc" << kMaxHeadBytes << R"vc() {
    send("HTTP/1.1 413 Payload Too Large\r\nContent-Length: 0\r\n\r\n", 53);
    exit(3);
    return 3;
  }
  if (he < 0 || !vn_parse_head(req, he, ph) || (ph[1] && !ph[2]) || parse_path(req, path) < 0) {
    send("HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n", 47);
    exit(1);
    return 1;
  }
  sz = stat_size(path);                                  // (2)
  if (sz < 0) {
    send("HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n", 45);
    exit(2);
    return 2;
  }
  fd = open(path);                                       // (3)
  body = malloc(sz + 16);
  m = read(fd, body, sz);                                // (4)
  strcpy(hdr, "HTTP/1.1 200 OK\r\nContent-Length: ");
  itoa(num, m);
  strcat(hdr, num);
  strcat(hdr, "\r\n\r\n");
  hl = strlen(hdr);
  resp = malloc(hl + m + 16);
  memcpy(resp, hdr, hl);
  memcpy(resp + hl, body, m);
  send(resp, hl + m);                                    // (5)
  close(fd);                                             // (6)
  exit(0);                                               // (7)
  return 0;
}
)vc";
  return os.str();
}

std::string KeepAliveHandlerSource() {
  // The persistent-connection static-file guest: one invocation serves every
  // request of its connection, so the shell acquire + snapshot restore is
  // paid once per connection instead of once per request.  Each iteration
  // frames one request off the channel (growable within the kMaxHeadBytes
  // head window — a head that does not terminate inside it is answered 413,
  // not truncated), drains any Content-Length body through the channel in
  // bounded chunks (bodies are not capped by the head window), serves the
  // file, and honors Connection: close / keep-alive.  It leaves through
  // return_exit, or send_exit when a response is pending, with [requests,
  // 2xx, 4xx, clean] as its output, so the host can account per-request
  // statuses without parsing the byte stream.
  // Framing trust: the host front end (listener or native parser) rejects
  // smuggling-shaped heads before forwarding, so this guest keeps the
  // simple first-match Content-Length scan.
  //
  // Hypercall exits are the per-request currency keep-alive amortizes
  // against, so a kept-alive GET costs two: readfile (size and bytes in one
  // exit), and the send_recv that sends its response and receives the next
  // request.  Each response is built whole and held pending in the
  // send_recv message; whatever happens next flushes it first — the next
  // receive (request bytes or a body drain), a plain send when the next
  // head is already buffered, or the exit, which carries it: send_exit
  // sends it and leaves in one exit.  So responses leave in request order,
  // and every request is served with nothing pending.  N requests on a file
  // that fits the window cost 2N+1 exits when the connection ends with a
  // response pending (Connection: close, a 400 or a 413): the first
  // receive, N readfiles, N-1 flushes and send_exit.  A connection that
  // ends at EOF flushes its last response in the send_recv that sees the
  // EOF, then leaves through return_exit: 2N+2.  The first receive is
  // snapshot_recv, which takes the snapshot inside it, so a warm restore
  // delivers the connection's first bytes before its first vmrun and saves
  // that exit: 2N, or 2N+1 at EOF.  (When the CRT has already snapshotted,
  // boot flag bit 0, it is a plain recv.)
  // Interpreted guest cycles are the other per-request cost: the head is
  // parsed in ONE pass (validity, version, Host, Content-Length,
  // Connection), the terminator search resumes where the previous receive
  // left off, and the 200 head is cached across the connection's requests
  // (rebuilt only when the file size changes).
  std::ostringstream os;
  os << HandlerHelpersSource() << R"vc(
// Writes "HTTP/1.1 200 OK\r\nContent-Length: <sz>\r\n\r\n" so that it ends
// just before `end`; returns its length.
int vn_head200(char *end, int sz) {
  int n;
  memcpy(end - 4, "\r\n\r\n", 4);
  n = 4;
  while (n == 4 || sz > 0) {
    n = n + 1;
    end[0 - n] = '0' + sz % 10;
    sz = sz / 10;
  }
  memcpy(end - n - 33, "HTTP/1.1 200 OK\r\nContent-Length: ", 33);
  return n + 33;
}

// Serves one parsed request (ph is vn_parse_head's output) and leaves its
// response pending in io[0..1].  A 200 is one buffer: readfile fills the
// 4 KB body window `win`, and the head sits right-aligned in the 64 bytes
// before it, cached across requests as hc = [file size, head length].  A
// file larger than the window streams through open/read/send/close, the
// head riding with the first chunk.
int vn_serve(char *req, int *ph, char *win, int *hc, int *io) {
  char path[256];
  int sz;
  int fd;
  int hl;
  int m;
  if (!ph[0] || (ph[1] && !ph[2]) || parse_path(req, path) < 0) {
    io[0] = "HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n";
    io[1] = 47;
    return 400;
  }
  sz = readfile(path, win, 4096);
  if (sz < 0) {
    io[0] = "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n";
    io[1] = 45;
    return 404;
  }
  if (sz != hc[0]) {
    hc[0] = sz;
    hc[1] = vn_head200(win, sz);
  }
  hl = hc[1];
  if (sz <= 4096) {
    io[0] = win - hl;
    io[1] = hl + sz;
    return 200;
  }
  fd = open(path);
  while (sz > 0) {
    m = sz;
    if (m > 4096) {
      m = 4096;
    }
    m = read(fd, win, m);
    if (m <= 0) {
      close(fd);
      return 500;
    }
    send(win - hl, hl + m);
    hl = 0;
    sz = sz - m;
  }
  close(fd);
  return 200;
}

// Exits with the counters as output.  A pending response leaves in the same
// exit: io becomes send_exit's message [out, out_len, stats, 32, code].
int vn_finish(int *io, int *stats, int code) {
  if (io[1]) {
    io[2] = stats;
    io[3] = sizeof(int) * 4;
    io[4] = code;
    send_exit(io);
  } else {
    return_exit(code, stats, sizeof(int) * 4);
  }
  return code;
}

int main() {
  char req[)vc" << kMaxHeadBytes + 1 << R"vc(];
  char resp[4160];
  int ph[5];
  int stats[4];
  int hc[2];
  int io[5];
  int *boot;
  int n;
  int m;
  int he;
  int body;
  int rem;
  int st;
  int ka;
  int i;
  int j;
  int sp;
  hc[0] = 0 - 1;
  io[1] = 0;
  stats[0] = 0;
  stats[1] = 0;
  stats[2] = 0;
  stats[3] = 0;
  // The first receive.  Issued inline, so a restore resumes in main's own
  // frame, with the connection's first bytes already in req.
  boot = )vc" << wasp::kBootInfoAddr << R"vc(;
  if (boot[1] & )vc" << wasp::kBootFlagSnapshot << R"vc() {
    n = recv(req, )vc" << kMaxHeadBytes << R"vc();
  } else {
    n = __hc2()vc" << wasp::kHcSnapshotRecv << R"vc(, req, )vc" << kMaxHeadBytes << R"vc();
  }
  if (n <= 0) {
    stats[3] = 1;
    return vn_finish(io, stats, 0);
  }
  while (1) {
    he = vn_headers_end_from(req, 0, n);
    if (he >= 0 && io[1]) {
      send(io[0], io[1]);
      io[1] = 0;
    }
    while (he < 0) {
      if (n >= )vc" << kMaxHeadBytes << R"vc() {
        io[0] = "HTTP/1.1 413 Payload Too Large\r\nContent-Length: 0\r\n\r\n";
        io[1] = 53;
        stats[0] = stats[0] + 1;
        stats[2] = stats[2] + 1;
        return vn_finish(io, stats, 3);
      }
      io[2] = req + n;
      io[3] = )vc" << kMaxHeadBytes << R"vc( - n;
      m = send_recv(io);
      io[1] = 0;
      if (m <= 0) {
        if (n == 0) {
          stats[3] = 1;
          return vn_finish(io, stats, 0);
        }
        io[0] = "HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n";
        io[1] = 47;
        stats[0] = stats[0] + 1;
        stats[2] = stats[2] + 1;
        return vn_finish(io, stats, 1);
      }
      sp = n - 3;
      n = n + m;
      he = vn_headers_end_from(req, sp, n);
    }
    req[n] = 0;
    vn_parse_head(req, he, ph);
    st = vn_serve(req, ph, resp + 64, hc, io);
    stats[0] = stats[0] + 1;
    if (st == 200) {
      stats[1] = stats[1] + 1;
    } else {
      stats[2] = stats[2] + 1;
    }
    if (st == 400) {
      return vn_finish(io, stats, 1);
    }
    body = n - (he + 4);
    if (body > ph[3]) {
      body = ph[3];
    }
    // A body still owed by the channel is drained into req: when any
    // remains, every byte req holds belongs to this request.
    rem = ph[3] - body;
    while (rem > 0) {
      io[2] = req;
      io[3] = rem;
      if (rem > )vc" << kMaxHeadBytes << R"vc() {
        io[3] = )vc" << kMaxHeadBytes << R"vc(;
      }
      m = send_recv(io);
      io[1] = 0;
      if (m <= 0) {
        return vn_finish(io, stats, 1);
      }
      rem = rem - m;
    }
    ka = ph[4];
    if (ka == 2) {
      ka = ph[1];
    }
    i = he + 4 + body;
    j = 0;
    while (i < n) {
      req[j] = req[i];
      i = i + 1;
      j = j + 1;
    }
    n = j;
    if (!ka) {
      stats[3] = 1;
      return vn_finish(io, stats, 0);
    }
  }
  return 0;
}
)vc";
  return os.str();
}

const char* ServeModeName(ServeMode mode) {
  switch (mode) {
    case ServeMode::kNative:
      return "native";
    case ServeMode::kVirtine:
      return "virtine";
    case ServeMode::kVirtineSnapshot:
      return "virtine+snapshot";
  }
  return "?";
}

StaticHttpServer::StaticHttpServer(wasp::Runtime* runtime, wasp::HostEnv* env)
    : runtime_(runtime), env_(env) {
  auto image = vcc::CompileProgram(vrt::VlibcSource() + StaticHandlerSource(), "main",
                                   vrt::Env::kLong64);
  VB_CHECK(image.ok(), "static handler failed to compile: " << image.status().ToString());
  handler_image_ = std::move(*image);
  auto ka_image = vcc::CompileProgram(vrt::VlibcSource() + KeepAliveHandlerSource(), "main",
                                      vrt::Env::kLong64);
  VB_CHECK(ka_image.ok(),
           "keep-alive handler failed to compile: " << ka_image.status().ToString());
  keepalive_image_ = std::move(*ka_image);
}

vbase::Result<ServeStats> StaticHttpServer::HandleConnection(wasp::ByteChannel& channel,
                                                             ServeMode mode,
                                                             const ConnectionOptions& conn) {
  switch (mode) {
    case ServeMode::kNative:
      return HandleNative(channel, conn);
    case ServeMode::kVirtine:
      return HandleVirtine(channel, /*snapshot=*/false, conn);
    case ServeMode::kVirtineSnapshot:
      return HandleVirtine(channel, /*snapshot=*/true, conn);
  }
  return vbase::InvalidArgument("bad mode");
}

vbase::Result<ServeStats> StaticHttpServer::HandleNative(wasp::ByteChannel& channel,
                                                         const ConnectionOptions& conn) {
  vbase::WallTimer timer;
  ServeStats stats;
  std::string inbuf;
  char window[kReadChunk];
  const auto count = [&stats](int status) {
    stats.status = status;
    ++stats.requests;
    if (status >= 200 && status < 300) {
      ++stats.r2xx;
    } else if (status >= 400 && status < 500) {
      ++stats.r4xx;
    } else if (status >= 500) {
      ++stats.r5xx;
    }
  };
  // Writes an empty-bodied status response; used for every non-200 path.
  const auto respond = [&channel, &count](int status) {
    channel.guest().WriteString(BuildResponse(status, ""));
    count(status);
  };
  bool closing = false;
  while (!closing) {
    // Frame exactly one request with a growable read loop: accumulate until
    // the head is complete and the declared body has arrived.  The framer
    // refuses a request past a limit (413) or malformed or smuggling-shaped
    // (400) as soon as the head shows it; a stream that ends mid-request is
    // a 400 too.
    FramedRequest framed;
    bool have_request = false;
    while (!have_request && !closing) {
      auto f = FrameRequest(inbuf);
      if (f.ok()) {
        framed = std::move(*f);
        have_request = true;
        break;
      }
      if (f.status().code() != vbase::Code::kFailedPrecondition) {
        respond(RejectStatus(f.status()));
        closing = true;
        break;
      }
      const uint64_t n = channel.guest().Read(window, sizeof(window));
      if (n == 0) {
        // Peer closed its write end.  Mid-request bytes mean a truncated
        // request (400); a clean boundary just ends the connection.
        if (!inbuf.empty() || stats.requests == 0) {
          respond(400);
        }
        closing = true;
        break;
      }
      inbuf.append(window, static_cast<size_t>(n));
    }
    if (!have_request) {
      break;
    }
    const HttpRequest& req = framed.request;
    inbuf.erase(0, framed.consumed);
    // Presence check (not value): matches the guest handler's scan, so every
    // ServeMode answers the same bytes with the same status for structural
    // rules.  (Value-level rules the guest does not implement — e.g.
    // Content-Length digit checking — remain host-parser only.)
    if (req.version == "HTTP/1.1" && !req.HasHeader("host")) {
      respond(400);
      break;  // structural 400: do not trust the stream's framing any more
    }
    auto content = env_->GetFile(req.target);
    if (!content.ok()) {
      respond(404);
    } else {
      // Stream the response: head first, then the body in bounded chunks
      // (the unit of incremental I/O — the channel itself is unbounded).
      channel.guest().WriteString("HTTP/1.1 200 OK\r\nContent-Length: " +
                                  std::to_string(content->size()) + "\r\n\r\n");
      for (size_t off = 0; off < content->size(); off += kReadChunk) {
        const size_t len = std::min(kReadChunk, content->size() - off);
        channel.guest().Write(content->data() + off, len);
      }
      count(200);
    }
    if (!conn.keep_alive || !WantKeepAlive(req) ||
        (conn.max_requests > 0 &&
         stats.requests >= static_cast<uint64_t>(conn.max_requests))) {
      closing = true;
    }
  }
  stats.wall_ns = timer.ElapsedNanos();
  return stats;
}

vbase::Result<ServeStats> StaticHttpServer::HandleVirtine(wasp::ByteChannel& channel,
                                                          bool snapshot,
                                                          const ConnectionOptions& conn) {
  vbase::WallTimer timer;
  wasp::VirtineSpec spec;
  spec.image = conn.keep_alive ? &keepalive_image_ : &handler_image_;
  spec.key = conn.keep_alive ? kKeepAliveHandlerKey : kStaticHandlerKey;
  spec.mem_size = 1ULL << 20;
  spec.policy = wasp::kPolicyStream | wasp::kPolicyFileIo | wasp::MaskOf(wasp::kHcSnapshot);
  if (conn.keep_alive) {
    // The keep-alive guest reports [requests, 2xx, 4xx, clean] on exit, and
    // takes its snapshot inside its first receive rather than after boot.
    spec.policy |= wasp::MaskOf(wasp::kHcReturnData);
    spec.crt_snapshot = false;
  }
  spec.use_snapshot = snapshot;
  spec.env = env_;
  spec.channel = &channel.guest();
  wasp::RunOutcome outcome = runtime_->Invoke(spec);
  if (outcome.fault != wasp::FaultKind::kNone) {
    // The guest (not the server) died: its shell is already quarantined.
    // Answer 500 with the fault kind as the reason phrase so the client can
    // tell an isolated guest fault from host-side trouble, and return OK
    // stats — one faulted invocation is a served (if failed) connection,
    // not a server error.
    channel.guest().WriteString(
        BuildResponseWithReason(500, wasp::FaultKindName(outcome.fault), ""));
    ServeStats stats;
    stats.status = 500;
    stats.requests = 1;
    stats.r5xx = 1;
    stats.fault = outcome.fault;
    stats.modeled_cycles = outcome.stats.total_cycles;
    stats.guest_cycles = outcome.stats.guest_cycles;
    stats.io_exits = outcome.stats.io_exits;
    stats.wall_ns = timer.ElapsedNanos();
    return stats;
  }
  if (!outcome.status.ok()) {
    return outcome.status;
  }
  ServeStats stats;
  if (conn.keep_alive) {
    // One invocation served the whole connection; per-request accounting
    // comes back as the exit's output, word-sized counters.
    uint64_t guest_stats[4] = {0, 0, 0, 0};
    if (outcome.output.size() >= sizeof(guest_stats)) {
      std::memcpy(guest_stats, outcome.output.data(), sizeof(guest_stats));
    }
    stats.requests = guest_stats[0];
    stats.r2xx = guest_stats[1];
    stats.r4xx = guest_stats[2];
    stats.status = outcome.exit_code == 0   ? (stats.requests > 0 ? 200 : 0)
                   : outcome.exit_code == 3 ? 413
                                            : 400;
  } else {
    stats.status = outcome.exit_code == 0   ? 200
                   : outcome.exit_code == 2 ? 404
                   : outcome.exit_code == 3 ? 413
                                            : 400;
    stats.requests = 1;
    if (stats.status == 200) {
      stats.r2xx = 1;
    } else {
      stats.r4xx = 1;
    }
  }
  stats.modeled_cycles = outcome.stats.total_cycles;
  stats.guest_cycles = outcome.stats.guest_cycles;
  stats.io_exits = outcome.stats.io_exits;
  stats.wall_ns = timer.ElapsedNanos();
  // Strip the VM-exit charges the vCPU made to approximate the same handler
  // logic running natively in the host process (Figure 13's baseline
  // denominator).
  const wasp::InvokeStats& st = outcome.stats;
  stats.deisolated_cycles = st.guest_cycles > st.exit_cycles ? st.guest_cycles - st.exit_cycles : 0;
  return stats;
}

// --- ConcurrentHttpServer ----------------------------------------------------

ConcurrentHttpServer::ConcurrentHttpServer(wasp::Runtime* runtime, wasp::HostEnv* env,
                                           ConcurrentServerOptions options)
    : options_(options),
      inner_(runtime, env),
      executor_(runtime, [&options] {
        wasp::ExecutorOptions opts;
        static_cast<wasp::AdmissionOptions&>(opts) = options;
        opts.workers = options.lanes;
        opts.block_when_full = options.block_when_full;
        // Overrides name routes; the executor keys routed jobs RouteKey(route).
        opts.key_quota_overrides.clear();
        for (const auto& [route, quota] : options.key_quota_overrides) {
          opts.key_quota_overrides.emplace(RouteKey(route), quota);
        }
        return opts;
      }()) {}

std::future<vbase::Result<ServeStats>> ConcurrentHttpServer::SubmitConnection(
    wasp::ByteChannel& channel, ServeMode mode, const std::string& route,
    const ConnectionOptions& conn) {
  auto it = options_.route_classes.find(route);
  const wasp::KeyClass klass =
      it != options_.route_classes.end() ? it->second : wasp::KeyClass::kLatency;
  ServerCounters& ctr = counters_[static_cast<size_t>(mode)];
  auto done = std::make_shared<std::promise<vbase::Result<ServeStats>>>();
  std::future<vbase::Result<ServeStats>> resolved = done->get_future();
  wasp::Admission admission = wasp::Admission::kAccepted;
  // The route is the governance key: quota accounting, the breaker and the
  // affinity scan all group by it.
  const bool accepted = executor_.TrySubmitTask(
      [this, &channel, mode, conn, done, &ctr]() -> wasp::RunOutcome {
        vbase::Result<ServeStats> stats = inner_.HandleConnection(channel, mode, conn);
        wasp::RunOutcome outcome;
        {
          std::lock_guard<std::mutex> lock(counters_mu_);
          if (stats.ok()) {
            // Per-request accounting: a keep-alive connection contributes one
            // counter tick per request it served, not one per connection, so
            // RPS math over counters stays mode-comparable.
            ctr.requests += stats->requests;
            if (stats->requests > 1) {
              ctr.keepalive_reused += stats->requests - 1;
            }
            ctr.status_2xx += stats->r2xx;
            ctr.status_4xx += stats->r4xx;
            ctr.status_5xx += stats->r5xx;
            if (stats->fault != wasp::FaultKind::kNone) {
              // Propagate the fault on the task's outcome so the executor
              // classifies this job as faulted (and still releases the
              // route's quota slot — a fault storm must not wedge its key).
              ++ctr.faulted;
              outcome.fault = stats->fault;
            }
            ctr.modeled_cycles += stats->modeled_cycles;
            ctr.io_exits += stats->io_exits;
          } else {
            ++ctr.errors;
          }
          ++ctr.completed;
        }
        done->set_value(std::move(stats));
        return outcome;
      },
      /*future=*/nullptr, RouteKey(route), klass, &admission);
  if (accepted) {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++ctr.accepted;
    return resolved;
  }
  // Load shedding: answer on the submitter's thread so the client sees a
  // well-formed response instead of a silently dropped connection.  The
  // status tells it what to do next: 429 = this route must back off (over
  // its quota, or its circuit breaker is open — the server is fine);
  // 503 = the whole server is overloaded.  A breaker shed adds Retry-After
  // so a well-behaved client knows when to probe again.
  int status = 503;
  std::vector<std::pair<std::string, std::string>> headers;
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    if (admission == wasp::Admission::kQuotaExceeded) {
      status = 429;
      ++ctr.quota_rejected;
    } else if (admission == wasp::Admission::kCircuitOpen) {
      status = 429;
      headers.emplace_back("Retry-After", std::to_string(options_.recovery.retry_after_s));
      ++ctr.breaker_rejected;
    } else {
      ++ctr.rejected;
    }
  }
  channel.guest().WriteString(BuildResponse(status, "", headers));
  ServeStats shed;
  shed.status = status;
  done->set_value(shed);
  return resolved;
}

ServerCounters ConcurrentHttpServer::counters(ServeMode mode) const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  return counters_[static_cast<size_t>(mode)];
}

}  // namespace vnet
