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

// The keep-alive guest's connection buffer (KeepAliveHandlerSource): a
// request of up to kMaxHeadBytes and its NUL at the bottom, the 200 head's
// slot, then the 4 KB body window.  The slot and window sit at
// kWindowOffset while the received bytes stay below the slot, and move up
// past a longer burst.
constexpr size_t kHeadSlotBytes = 64;
constexpr size_t kWindowOffset = 512;
constexpr size_t kConnBufferBytes = kMaxHeadBytes + 1 + kHeadSlotBytes + 4096;

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
  int c;
  i = 0;
  c = req[0];
  while (c && c != ' ') {
    i = i + 1;
    c = req[i];
  }
  if (!c) {
    return -1;
  }
  i = i + 1;
  c = req[i];
  j = 0;
  while (c && c != ' ' && j < 255) {
    path[j] = c;
    i = i + 1;
    j = j + 1;
    c = req[i];
  }
  path[j] = 0;
  if (j == 0) {
    return -1;
  }
  return j;
}

// Returns the offset of the first CRLFCRLF in [from, n), -1 if there is none
// (the keep-alive guest resumes a scan 3 bytes before the last receive's
// end, so a terminator split across receives is still found).  Horspool: i
// indexes the byte under the pattern's last position, and that byte sets
// the shift.  An LF may end a match, so the match is tested there; the
// pattern's other LF is 2 back and its nearest CR 1 back, and any other byte
// is in no occurrence that covers it, so the pattern moves past it.
int vn_headers_end_from(char *req, int from, int n) {
  int i;
  int c;
  i = from + 3;
  if (from < 0) {
    i = 3;
  }
  while (i < n) {
    c = req[i];
    if (c > 13) {
      i = i + 4;
    } else if (c == 10) {
      if (req[i - 1] == 13 && req[i - 2] == 10 && req[i - 3] == 13) {
        return i - 3;
      }
      i = i + 2;
    } else if (c == 13) {
      i = i + 1;
    } else {
      i = i + 4;
    }
  }
  return 0 - 1;
}

// Single-pass head parse over [0, he), where he is the offset of the head's
// CRLFCRLF (vn_headers_end_from): every walk stops at a CR, at the latest at
// req[he], and a compare that reaches past he meets the terminator, so no
// walk needs a bound.  Fills out[5]:
//   out[0] = head valid (request-line shape + a colon in every header line)
//   out[1] = version is HTTP/1.1
//   out[2] = a Host header is present
//   out[3] = Content-Length value (first match; the host edge rejects
//            conflicting duplicates before forwarding)
//   out[4] = Connection: 0 close, 1 keep-alive, 2 absent (last header wins)
// Header names match case-insensitively, and spaces or tabs between a name
// and its colon are trimmed, as the host parser does.  Every letter a name
// or token is matched against is lowercase, so (c | 32) equals it exactly
// when c is that letter in either case; '-' is compared as it is, since CR
// | 32 is '-'.  Each walk keeps the byte under it in c.
// Returns out[0].
int vn_parse_head(char *req, int he, int *out) {
  int i;
  int c;
  int ls;
  int colon;
  int nl;
  int v;
  int tok;
  out[0] = 0;
  out[1] = 0;
  out[2] = 0;
  out[3] = 0;
  out[4] = 2;
  i = 0;
  c = req[0];
  while (c != ' ' && c != 9 && c != 13) {
    i = i + 1;
    c = req[i];
  }
  if (i == 0 || c == 13) {
    return 0;
  }
  while (c == ' ' || c == 9) {
    i = i + 1;
    c = req[i];
  }
  if (c == 13) {
    return 0;
  }
  while (c != ' ' && c != 9 && c != 13) {
    i = i + 1;
    c = req[i];
  }
  if (c == 13) {
    return 0;
  }
  while (c == ' ' || c == 9) {
    i = i + 1;
    c = req[i];
  }
  if (!(c == 'H' && req[i + 1] == 'T' && req[i + 2] == 'T' && req[i + 3] == 'P' &&
        req[i + 4] == '/')) {
    return 0;
  }
  if (req[i + 5] == '1' && req[i + 6] == '.' && req[i + 7] == '1') {
    c = req[i + 8];
    if (c == 13 || c == ' ' || c == 9) {
      out[1] = 1;
    }
  }
  c = req[i];
  while (c != 13) {
    i = i + 1;
    c = req[i];
  }
  i = i + 2;
  while (i < he) {
    ls = i;
    c = req[i];
    while (c != ':' && c != 13) {
      i = i + 1;
      c = req[i];
    }
    if (c == 13) {
      return 0;
    }
    colon = i;
    while (c != 13) {
      i = i + 1;
      c = req[i];
    }
    nl = colon - ls;
    // Space and tab sort below every name byte, so one load and compare of
    // the byte before the colon clears an ordinary line before the trim.
    if (req[colon - 1] <= ' ') {
      while (nl > 0 && (req[ls + nl - 1] == ' ' || req[ls + nl - 1] == 9)) {
        nl = nl - 1;
      }
    }
    if (nl == 4) {
      if ((req[ls] | 32) == 'h' && (req[ls + 1] | 32) == 'o' && (req[ls + 2] | 32) == 's' &&
          (req[ls + 3] | 32) == 't') {
        out[2] = 1;
      }
    } else if (nl == 14) {
      if ((req[ls] | 32) == 'c' && (req[ls + 1] | 32) == 'o' && (req[ls + 2] | 32) == 'n' &&
          (req[ls + 3] | 32) == 't' && (req[ls + 4] | 32) == 'e' &&
          (req[ls + 5] | 32) == 'n' && (req[ls + 6] | 32) == 't' && req[ls + 7] == '-' &&
          (req[ls + 8] | 32) == 'l' && (req[ls + 9] | 32) == 'e' &&
          (req[ls + 10] | 32) == 'n' && (req[ls + 11] | 32) == 'g' &&
          (req[ls + 12] | 32) == 't' && (req[ls + 13] | 32) == 'h') {
        v = 0;
        ls = colon + 1;
        c = req[ls];
        while (c == ' ' || c == 9) {
          ls = ls + 1;
          c = req[ls];
        }
        while (c >= '0' && c <= '9') {
          v = v * 10 + (c - '0');
          ls = ls + 1;
          c = req[ls];
        }
        out[3] = v;
      }
    } else if (nl == 10) {
      if ((req[ls] | 32) == 'c' && (req[ls + 1] | 32) == 'o' && (req[ls + 2] | 32) == 'n' &&
          (req[ls + 3] | 32) == 'n' && (req[ls + 4] | 32) == 'e' &&
          (req[ls + 5] | 32) == 'c' && (req[ls + 6] | 32) == 't' &&
          (req[ls + 7] | 32) == 'i' && (req[ls + 8] | 32) == 'o' && (req[ls + 9] | 32) == 'n') {
        // close wins over keep-alive.  A token compare that runs past the
        // line's CR fails at the CR, which matches neither a letter nor '-'.
        tok = 2;
        v = colon + 1;
        c = req[v];
        while (c != 13) {
          if ((c | 32) == 'c' && (req[v + 1] | 32) == 'l' && (req[v + 2] | 32) == 'o' &&
              (req[v + 3] | 32) == 's' && (req[v + 4] | 32) == 'e') {
            tok = 0;
          }
          if (tok && (c | 32) == 'k' && (req[v + 1] | 32) == 'e' && (req[v + 2] | 32) == 'e' &&
              (req[v + 3] | 32) == 'p' && req[v + 4] == '-') {
            tok = 1;
          }
          v = v + 1;
          c = req[v];
        }
        out[4] = tok;
      }
    }
    i = i + 2;
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
  // not truncated), drains the Content-Length body a valid head still owes
  // through the channel in bounded chunks (bodies are not capped by the head
  // window; a body that EOF cuts short is answered 400 and ends the
  // connection, as the native handler answers it), serves the file, and
  // honors Connection: close / keep-alive.  It leaves through
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
  // Interpreted guest cycles are the other per-request cost: the terminator
  // search skips bytes and resumes where the previous receive left off, the
  // head is parsed in ONE pass (validity, version, Host, Content-Length,
  // Connection) that loads each byte once and folds case without calls, and
  // the 200 head is cached across the connection's requests (rebuilt only
  // when the file size changes).
  //
  // Memory is the third: the next restore repairs every page a connection
  // wrote, so the guest keeps its writes in one page.  main declares its
  // connection buffer (kConnBufferBytes) first, so the buffer tops main's
  // frame and every other local and every callee frame lies below it.  A
  // request is received at the buffer's bottom, and the 200 head's slot and
  // the 4 KB body window sit kWindowOffset bytes up, clear of any receive
  // that leaves n <= kWindowOffset - kHeadSlotBytes.  A longer head or
  // pipelined burst reaches the slot: its request is served from a window
  // moved past the received bytes, with the cached head dropped before and
  // after.  A body is drained into the window, where it can reach neither
  // the request nor the slot.  So a warm connection on files of up to about
  // 1.6 KB writes only the page under the stack's top page (frames, locals,
  // request, head and body) and the next restore copies 4 KB.  A local
  // declared before the buffer, or a callee frame deep enough to leave that
  // page, dirties a second page: KeepAliveGuest.AWarmConnectionRepairsOnePage
  // (test_net) and check_modeled.py's http_connect cycles catch it.
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
// head riding with the first chunk.  A stream that comes up short of the
// size readfile reported (the file was replaced, or open failed) returns 500
// if no byte was sent yet and 0 once its body is cut short, with nothing
// pending: the caller ends the connection, so nothing follows a short body.
// (The stream loop leaves io alone, so no 200 pays for this path.)
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
      if (hl) {
        return 500;
      }
      return 0;
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

// Refuses a request the framing loop cannot serve (a 413, or a 400 when EOF
// cuts its head or body short): the answer leaves with the exit, counted as
// a 4xx.
int vn_refuse(int *io, int *stats, char *resp, int len, int code) {
  io[0] = resp;
  io[1] = len;
  stats[0] = stats[0] + 1;
  stats[2] = stats[2] + 1;
  return vn_finish(io, stats, code);
}

int main() {
  char conn[)vc" << kConnBufferBytes << R"vc(];
  int ph[5];
  int stats[4];
  int hc[2];
  int io[5];
  int *boot;
  char *win;
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
  // frame, with the connection's first bytes already in conn.
  boot = )vc" << wasp::kBootInfoAddr << R"vc(;
  if (boot[1] & )vc" << wasp::kBootFlagSnapshot << R"vc() {
    n = recv(conn, )vc" << kMaxHeadBytes << R"vc();
  } else {
    n = __hc2()vc" << wasp::kHcSnapshotRecv << R"vc(, conn, )vc" << kMaxHeadBytes << R"vc();
  }
  if (n <= 0) {
    stats[3] = 1;
    return vn_finish(io, stats, 0);
  }
  while (1) {
    he = 0 - 1;
    if (n) {
      he = vn_headers_end_from(conn, 0, n);
      if (he >= 0 && io[1]) {
        send(io[0], io[1]);
        io[1] = 0;
      }
    }
    while (he < 0) {
      if (n >= )vc" << kMaxHeadBytes << R"vc() {
        return vn_refuse(io, stats, "HTTP/1.1 413 Payload Too Large\r\nContent-Length: 0\r\n\r\n",
                         53, 3);
      }
      io[2] = conn + n;
      io[3] = )vc" << kMaxHeadBytes << R"vc( - n;
      m = send_recv(io);
      io[1] = 0;
      if (m <= 0) {
        if (n == 0) {
          stats[3] = 1;
          return vn_finish(io, stats, 0);
        }
        return vn_refuse(io, stats, "HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n", 47,
                         1);
      }
      sp = n - 3;
      n = n + m;
      he = vn_headers_end_from(conn, sp, n);
    }
    conn[n] = 0;
    // A head or burst that reached the head's slot moves the window past
    // the received bytes, and the slot's cached head is dropped before and
    // after this request is served.
    win = conn + )vc" << kWindowOffset << R"vc(;
    if (n > )vc" << kWindowOffset - kHeadSlotBytes << R"vc() {
      win = conn + n + )vc" << 1 + kHeadSlotBytes << R"vc(;
      hc[0] = 0 - 1;
    }
    // A valid head's body still owed by the channel is drained into the
    // window before the request is served; EOF in it is a 400.
    body = n - (he + 4);
    if (vn_parse_head(conn, he, ph)) {
      if (body > ph[3]) {
        body = ph[3];
      }
      rem = ph[3] - body;
      while (rem > 0) {
        io[2] = win;
        io[3] = rem;
        if (rem > 4096) {
          io[3] = 4096;
        }
        m = send_recv(io);
        io[1] = 0;
        if (m <= 0) {
          return vn_refuse(io, stats, "HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n",
                           47, 1);
        }
        rem = rem - m;
      }
    }
    st = vn_serve(conn, ph, win, hc, io);
    if (n > )vc" << kWindowOffset - kHeadSlotBytes << R"vc() {
      hc[0] = 0 - 1;
    }
    stats[0] = stats[0] + 1;
    if (st == 200) {
      stats[1] = stats[1] + 1;
    } else {
      if (st == 500) {
        io[0] = "HTTP/1.1 500 Internal Server Error\r\nContent-Length: 0\r\n\r\n";
        io[1] = 57;
      }
      if (st == 500 || st == 0) {
        return vn_finish(io, stats, 5);
      }
      stats[2] = stats[2] + 1;
    }
    if (st == 400) {
      return vn_finish(io, stats, 1);
    }
    ka = ph[4];
    if (ka == 2) {
      ka = ph[1];
    }
    i = he + 4 + body;
    j = 0;
    while (i < n) {
      conn[j] = conn[i];
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
  if (outcome.fault == wasp::FaultKind::kNone && !outcome.status.ok()) {
    return outcome.status;
  }
  ServeStats stats;
  if (outcome.fault != wasp::FaultKind::kNone) {
    // The guest (not the server) died: its shell is already quarantined.
    // Answer 500 with the fault kind as the reason phrase so the client can
    // tell an isolated guest fault from host-side trouble, and return OK
    // stats — one faulted invocation is a served (if failed) connection,
    // not a server error.
    channel.guest().WriteString(
        BuildResponseWithReason(500, wasp::FaultKindName(outcome.fault), ""));
    stats.status = 500;
    stats.requests = 1;
    stats.r5xx = 1;
    stats.fault = outcome.fault;
  } else {
    // Both guests' exit codes: 0 served, 2 not found, 3 too large, 5 a
    // streamed file came up short (the connection ended on that request's
    // 500), anything else a bad request.
    const uint64_t code = outcome.exit_code;
    stats.status = code == 0 ? 200 : code == 2 ? 404 : code == 3 ? 413 : code == 5 ? 500 : 400;
    stats.r5xx = stats.status == 500 ? 1 : 0;
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
      if (code == 0 && stats.requests == 0) {
        stats.status = 0;  // a clean end that served nothing
      }
    } else {
      stats.requests = 1;
      stats.r2xx = stats.status == 200 ? 1 : 0;
      stats.r4xx = stats.status / 100 == 4 ? 1 : 0;
    }
  }
  const wasp::InvokeStats& st = outcome.stats;
  stats.modeled_cycles = st.total_cycles;
  stats.guest_cycles = st.guest_cycles;
  stats.io_exits = st.io_exits;
  stats.wall_ns = timer.ElapsedNanos();
  // Strip the VM-exit charges the vCPU made to approximate the same handler
  // logic running natively in the host process (Figure 13's baseline
  // denominator).
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
