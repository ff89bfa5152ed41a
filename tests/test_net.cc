// vnet tests: HTTP parser (including property-style malformed-input sweeps),
// the static server in all three modes, the echo guest, the serverless
// platform, and the bursty-load simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <map>

#include "src/base/clock.h"
#include "src/base/rng.h"
#include "src/vjs/vjs.h"
#include "src/vnet/http.h"
#include "src/vnet/loadgen.h"
#include "src/vnet/server.h"
#include "src/vcc/vcc.h"
#include "src/vnet/serverless.h"
#include "src/vrt/vlibc.h"
#include "src/wasp/runtime.h"

namespace {

TEST(Http, ParsesRequestLineAndHeaders) {
  auto framed = vnet::FrameRequest(
      "GET /index.html HTTP/1.1\r\nHost: tinker\r\nX-Thing:  padded \r\n\r\n");
  ASSERT_TRUE(framed.ok()) << framed.status().ToString();
  const vnet::HttpRequest& req = framed->request;
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.target, "/index.html");
  EXPECT_EQ(req.version, "HTTP/1.1");
  EXPECT_EQ(req.Header("host"), "tinker");
  EXPECT_EQ(req.Header("X-THING"), "padded");
  EXPECT_EQ(req.Header("absent"), "");
}

TEST(Http, ParsesBodyWithContentLength) {
  auto framed = vnet::FrameRequest(
      "POST /fn HTTP/1.0\r\nContent-Length: 5\r\n\r\nhello-extra-ignored");
  ASSERT_TRUE(framed.ok());
  EXPECT_EQ(framed->request.body, "hello");
}

TEST(Http, IncompleteRequestsAskForMore) {
  auto r1 = vnet::FrameRequest("GET / HTTP/1.0\r\nHost: x\r\n");
  EXPECT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), vbase::Code::kFailedPrecondition);
  auto r2 = vnet::FrameRequest("POST / HTTP/1.0\r\nContent-Length: 10\r\n\r\nabc");
  EXPECT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), vbase::Code::kFailedPrecondition);
}

TEST(Http, MalformedRequestsAreRejected) {
  for (const char* bad : {
           "GARBAGE\r\n\r\n",
           "GET /\r\n\r\n",                       // missing version
           "GET / FTP/1.0\r\n\r\n",               // bad version
           "GET / HTTP/1.0\r\nNoColonHere\r\n\r\n",
           "POST / HTTP/1.0\r\nContent-Length: 1x\r\n\r\nz",
       }) {
    auto r = vnet::FrameRequest(bad);
    EXPECT_FALSE(r.ok()) << "accepted malformed request: " << bad;
    EXPECT_EQ(r.status().code(), vbase::Code::kInvalidArgument) << bad;
  }
}

TEST(Http, FuzzedInputNeverCrashesParser) {
  vbase::Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    std::string junk;
    const int len = static_cast<int>(rng.Below(200));
    for (int j = 0; j < len; ++j) {
      junk += static_cast<char>(rng.Below(256));
    }
    (void)vnet::FrameRequest(junk);  // must not crash or hang
  }
  SUCCEED();
}

TEST(Http, BuildResponseRoundTrips) {
  const std::string resp = vnet::BuildResponse(200, "body", {{"X-A", "1"}});
  EXPECT_NE(resp.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(resp.find("Content-Length: 4\r\n"), std::string::npos);
  EXPECT_NE(resp.find("X-A: 1\r\n"), std::string::npos);
  EXPECT_EQ(resp.substr(resp.size() - 4), "body");
  EXPECT_EQ(std::string(vnet::ReasonPhrase(404)), "Not Found");
}

// Regression: a reason phrase from an untrusted detail string (a fault
// message) must not be able to split the status line.  An embedded CR/LF
// would otherwise terminate the line and smuggle the remainder in as a
// response header.
TEST(Http, BuildResponseSanitizesReasonPhrase) {
  const std::string resp = vnet::BuildResponseWithReason(
      500, "bad\r\nX-Injected: 1\r\n", "", {});
  EXPECT_EQ(resp.rfind("HTTP/1.1 500 badX-Injected: 1\r\n", 0), 0u) << resp;
  EXPECT_EQ(resp.find("\r\nX-Injected"), std::string::npos) << resp;
  // Other control bytes are stripped too; printable text survives.
  const std::string ctl = vnet::BuildResponseWithReason(500, "a\x01\x7f\tb", "", {});
  EXPECT_EQ(ctl.rfind("HTTP/1.1 500 ab\r\n", 0), 0u) << ctl;
}

// --- Keep-alive framing: pipelined splits and smuggling rejection -------------

TEST(Http, FrameRequestSplitsPipelinedStream) {
  const std::string stream =
      "POST /a HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbodyGET /b HTTP/1.1\r\nHost: "
      "x\r\n\r\n";
  auto first = vnet::FrameRequest(stream);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->request.target, "/a");
  EXPECT_EQ(first->request.body, "body");
  auto second = vnet::FrameRequest(stream.substr(first->consumed));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->request.target, "/b");
  EXPECT_EQ(second->consumed, stream.size() - first->consumed);
}

TEST(Http, RequestBytesNeededCountsHeadPlusBody) {
  const std::string head = "POST /a HTTP/1.0\r\nContent-Length: 10\r\n\r\n";
  auto need = vnet::RequestBytesNeeded(head + "12345");
  ASSERT_TRUE(need.ok());
  EXPECT_EQ(*need, head.size() + 10);
  // Incomplete head: cannot know yet.
  EXPECT_EQ(vnet::RequestBytesNeeded("GET / HT").status().code(),
            vbase::Code::kFailedPrecondition);
}

TEST(Http, SmugglingShapedRequestsAreRejected) {
  for (const char* bad : {
           // Conflicting Content-Length values: two framings of one stream.
           "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\nbody!",
           // Even equal duplicates are rejected rather than collapsed.
           "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nbody",
           // Transfer-Encoding is unimplemented: accepting it while framing
           // by Content-Length is the TE.CL desync.
           "POST / HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
           // A bare LF line ending inside the head.
           "GET / HTTP/1.1\nHost: x\r\n\r\n",
           // Obsolete header folding.
           "GET / HTTP/1.1\r\nHost: x\r\n folded\r\n\r\n",
           // Signed/overflowing/non-canonical Content-Length.
           "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: +4\r\n\r\nbody",
           "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 99999999999999999999\r\n\r\n",
       }) {
    auto r = vnet::FrameRequest(bad);
    ASSERT_FALSE(r.ok()) << "accepted smuggling-shaped request: " << bad;
    EXPECT_EQ(r.status().code(), vbase::Code::kInvalidArgument) << bad;
  }
  // A bare CR inside the head (not part of CRLF) is likewise rejected; built
  // with string concatenation so the embedded NUL-free CR is explicit.
  std::string bare_cr = "GET / HTTP/1.1\rHost: x\r\n\r\n";
  EXPECT_EQ(vnet::FrameRequest(bare_cr).status().code(), vbase::Code::kInvalidArgument);
}

TEST(Http, WantKeepAliveFollowsVersionAndConnectionHeader) {
  const auto parse = [](const std::string& text) {
    auto framed = vnet::FrameRequest(text);
    EXPECT_TRUE(framed.ok()) << framed.status().ToString();
    return framed->request;
  };
  // HTTP/1.1 defaults to persistent; explicit close wins.
  EXPECT_TRUE(vnet::WantKeepAlive(parse("GET / HTTP/1.1\r\nHost: x\r\n\r\n")));
  EXPECT_FALSE(
      vnet::WantKeepAlive(parse("GET / HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")));
  EXPECT_FALSE(vnet::WantKeepAlive(
      parse("GET / HTTP/1.1\r\nHost: x\r\nConnection: keep-alive, CLOSE\r\n\r\n")));
  // HTTP/1.0 defaults to close; explicit keep-alive opts in.
  EXPECT_FALSE(vnet::WantKeepAlive(parse("GET / HTTP/1.0\r\n\r\n")));
  EXPECT_TRUE(
      vnet::WantKeepAlive(parse("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")));
}

TEST(Http, FrameResponseHeadReportsLengthAndStatus) {
  const std::string resp = "HTTP/1.1 200 OK\r\nContent-Length: 5\r\nX-A: 1\r\n\r\nhello";
  auto head = vnet::FrameResponseHead(resp);
  ASSERT_TRUE(head.ok()) << head.status().ToString();
  EXPECT_EQ(head->status, 200);
  EXPECT_EQ(head->content_length, 5u);
  EXPECT_EQ(head->head_bytes + head->content_length, resp.size());
  // Incomplete head asks for more; a malformed status line is rejected.
  EXPECT_EQ(vnet::FrameResponseHead("HTTP/1.1 200 OK\r\n").status().code(),
            vbase::Code::kFailedPrecondition);
  EXPECT_EQ(vnet::FrameResponseHead("HTTP/1.1 abc\r\n\r\n").status().code(),
            vbase::Code::kInvalidArgument);
}

// --- Static server in all modes -----------------------------------------------

class ServerModeTest : public ::testing::TestWithParam<vnet::ServeMode> {};

TEST_P(ServerModeTest, ServesFileAnd404) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/f.txt", std::string(100, 'z'));
  vnet::StaticHttpServer server(&runtime, &files);

  {
    wasp::ByteChannel channel;
    channel.host().WriteString("GET /f.txt HTTP/1.0\r\n\r\n");
    auto stats = server.HandleConnection(channel, GetParam());
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->status, 200);
    auto resp = channel.host().Drain();
    const std::string text(resp.begin(), resp.end());
    EXPECT_NE(text.find("200 OK"), std::string::npos);
    EXPECT_NE(text.find("Content-Length: 100"), std::string::npos);
    EXPECT_NE(text.find(std::string(100, 'z')), std::string::npos);
  }
  {
    wasp::ByteChannel channel;
    channel.host().WriteString("GET /nope HTTP/1.0\r\n\r\n");
    auto stats = server.HandleConnection(channel, GetParam());
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->status, 404);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, ServerModeTest,
                         ::testing::Values(vnet::ServeMode::kNative,
                                           vnet::ServeMode::kVirtine,
                                           vnet::ServeMode::kVirtineSnapshot),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case vnet::ServeMode::kNative: return "native";
                             case vnet::ServeMode::kVirtine: return "virtine";
                             default: return "virtine_snapshot";
                           }
                         });

// --- Robustness: malformed connections must never crash or hang ---------------
// Every case holds in all three modes: the native handler validates via the
// host parser, the virtine handler validates inside the guest (complete
// header block, Host on HTTP/1.1) before touching any file.

TEST_P(ServerModeTest, TruncatedRequestLineGets400) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/f.txt", std::string(100, 'z'));
  vnet::StaticHttpServer server(&runtime, &files);
  wasp::ByteChannel channel;
  channel.host().WriteString("GET /f.t");  // no CRLF, no header block
  // The request loop (correctly) waits for more bytes on an incomplete head;
  // closing the write end is the client giving up mid-request.
  channel.host().CloseWrite();
  auto stats = server.HandleConnection(channel, GetParam());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->status, 400);
  const auto resp = channel.host().Drain();
  EXPECT_EQ(std::string(resp.begin(), resp.end()).rfind("HTTP/1.1 400", 0), 0u);
}

TEST_P(ServerModeTest, OversizedHeaderGets413) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/f.txt", std::string(100, 'z'));
  vnet::StaticHttpServer server(&runtime, &files);
  wasp::ByteChannel channel;
  // The header block exceeds the 2 KB head window, so its terminator is
  // never seen inside the cap: every mode sheds it with 413, not a
  // half-parse (and not an unbounded buffer).
  channel.host().WriteString("GET /f.txt HTTP/1.0\r\nX-Big: " + std::string(4000, 'a') +
                             "\r\n\r\n");
  auto stats = server.HandleConnection(channel, GetParam());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->status, 413);
}

TEST_P(ServerModeTest, MissingHostOnHttp11Gets400) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/f.txt", std::string(100, 'z'));
  vnet::StaticHttpServer server(&runtime, &files);
  {
    wasp::ByteChannel channel;
    channel.host().WriteString("GET /f.txt HTTP/1.1\r\n\r\n");
    auto stats = server.HandleConnection(channel, GetParam());
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->status, 400);
  }
  {
    // With a Host header the same HTTP/1.1 request serves normally.
    wasp::ByteChannel channel;
    channel.host().WriteString("GET /f.txt HTTP/1.1\r\nHost: tinker\r\n\r\n");
    auto stats = server.HandleConnection(channel, GetParam());
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->status, 200);
  }
  // Parity regressions: the guest scanner and the host parser must answer
  // the same bytes with the same status in every mode.
  for (const char* present : {
           "GET /f.txt HTTP/1.1\r\nHost:\r\n\r\n",          // empty value counts as present
           "GET /f.txt HTTP/1.1\r\nHost : tinker\r\n\r\n",  // obsolete space before colon
       }) {
    wasp::ByteChannel channel;
    channel.host().WriteString(present);
    auto stats = server.HandleConnection(channel, GetParam());
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->status, 200) << present;
  }
  {
    // "HTTP/1.1" inside the path must not make an HTTP/1.0 request 1.1:
    // the version check anchors to the end of the request line.
    wasp::ByteChannel channel;
    channel.host().WriteString("GET /HTTP/1.1 HTTP/1.0\r\n\r\n");
    auto stats = server.HandleConnection(channel, GetParam());
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->status, 404);  // no such file — not a Host-less 400
  }
  {
    // A Host token in the *body* must not satisfy the header requirement:
    // the guest scan is bounded to the header block, like the host parser.
    wasp::ByteChannel channel;
    channel.host().WriteString("GET /f.txt HTTP/1.1\r\n\r\nHost: smuggled");
    auto stats = server.HandleConnection(channel, GetParam());
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->status, 400);
  }
  // Trailing whitespace after the version tokenizes away on both sides:
  // still HTTP/1.1, still Host-less, still 400 in every mode.
  for (const char* trailing : {"GET /f.txt HTTP/1.1 \r\n\r\n", "GET /f.txt HTTP/1.1\t\r\n\r\n"}) {
    wasp::ByteChannel channel;
    channel.host().WriteString(trailing);
    auto stats = server.HandleConnection(channel, GetParam());
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->status, 400) << trailing;
  }
}

TEST_P(ServerModeTest, StructurallyMalformedHeadGets400InEveryMode) {
  // Structural rules the guest validator shares with the host parser: an
  // HTTP/ version token on the request line and a colon in every header
  // line.  All modes must answer these with the same 400.
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/f.txt", std::string(100, 'z'));
  vnet::StaticHttpServer server(&runtime, &files);
  for (const char* bad : {
           "GET /f.txt XTTP/1.0\r\n\r\n",              // not an HTTP/ version
           "GARBAGE\r\n\r\n",                          // no version token at all
           "GET /f.txt HTTP/1.0\r\nNoColonHere\r\n\r\n",  // header without colon
           "GET /a b HTTP/1.1\r\nHost: x\r\n\r\n",  // 4 tokens: version is 'b'
       }) {
    wasp::ByteChannel channel;
    channel.host().WriteString(bad);
    auto stats = server.HandleConnection(channel, GetParam());
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->status, 400) << bad;
  }
}

TEST_P(ServerModeTest, PipelinedGarbageAfterRequestIsServedCleanly) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/f.txt", std::string(100, 'z'));
  vnet::StaticHttpServer server(&runtime, &files);
  wasp::ByteChannel channel;
  // A valid request followed by pipelined garbage: the one-request-per-
  // connection server serves the valid head and ignores the tail — exactly
  // one well-formed response, no crash, no hang.
  channel.host().WriteString(std::string("GET /f.txt HTTP/1.0\r\n\r\n") + "\x01\x02\x7f" +
                             "GARBAGE\r\nmore\r\n\r\n");
  auto stats = server.HandleConnection(channel, GetParam());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->status, 200);
  const auto resp = channel.host().Drain();
  const std::string text(resp.begin(), resp.end());
  EXPECT_EQ(text.rfind("HTTP/1.1 200", 0), 0u);
  EXPECT_NE(text.find(std::string(100, 'z')), std::string::npos);
}

// --- Keep-alive connections: one acquired shell serves many requests ----------

TEST_P(ServerModeTest, KeepAliveServesManyRequestsOnOneConnection) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/f.txt", std::string(64, 'z'));
  vnet::StaticHttpServer server(&runtime, &files);
  vnet::ConnectionOptions conn;
  conn.keep_alive = true;
  wasp::ByteChannel channel;
  for (int i = 0; i < 3; ++i) {
    channel.host().WriteString("GET /f.txt HTTP/1.1\r\nHost: x\r\n\r\n");
  }
  channel.host().CloseWrite();  // client hangs up after the third request
  auto stats = server.HandleConnection(channel, GetParam(), conn);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->requests, 3u);
  EXPECT_EQ(stats->r2xx, 3u);
  const auto resp = channel.host().Drain();
  const std::string text(resp.begin(), resp.end());
  size_t count = 0;
  for (size_t pos = text.find("HTTP/1.1 200"); pos != std::string::npos;
       pos = text.find("HTTP/1.1 200", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 3u);
}

TEST_P(ServerModeTest, KeepAliveHonorsConnectionClose) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/f.txt", std::string(64, 'z'));
  vnet::StaticHttpServer server(&runtime, &files);
  vnet::ConnectionOptions conn;
  conn.keep_alive = true;
  wasp::ByteChannel channel;
  // Second request says close: the third pipelined request must not be served.
  channel.host().WriteString("GET /f.txt HTTP/1.1\r\nHost: x\r\n\r\n");
  channel.host().WriteString(
      "GET /f.txt HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  channel.host().WriteString("GET /f.txt HTTP/1.1\r\nHost: x\r\n\r\n");
  auto stats = server.HandleConnection(channel, GetParam(), conn);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->requests, 2u);
  EXPECT_EQ(stats->r2xx, 2u);
}

TEST_P(ServerModeTest, KeepAliveStreamsContentLengthBodies) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/f.txt", std::string(64, 'z'));
  vnet::StaticHttpServer server(&runtime, &files);
  vnet::ConnectionOptions conn;
  conn.keep_alive = true;
  wasp::ByteChannel channel;
  // A body larger than any single read window, pipelined ahead of a second
  // request: the server must stream-drain exactly Content-Length bytes and
  // then frame the next request at the right boundary.
  const std::string body(5000, 'b');
  channel.host().WriteString("POST /f.txt HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                             std::to_string(body.size()) + "\r\n\r\n" + body);
  channel.host().WriteString("GET /f.txt HTTP/1.0\r\n\r\n");  // 1.0: closes after
  auto stats = server.HandleConnection(channel, GetParam(), conn);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->requests, 2u);
  EXPECT_EQ(stats->r2xx, 2u);
}

TEST_P(ServerModeTest, KeepAliveHttp10DefaultsToClose) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/f.txt", std::string(64, 'z'));
  vnet::StaticHttpServer server(&runtime, &files);
  vnet::ConnectionOptions conn;
  conn.keep_alive = true;
  wasp::ByteChannel channel;
  channel.host().WriteString("GET /f.txt HTTP/1.0\r\n\r\n");
  channel.host().WriteString("GET /f.txt HTTP/1.0\r\n\r\n");  // never reached
  auto stats = server.HandleConnection(channel, GetParam(), conn);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->requests, 1u);
}

// --- Keep-alive guest paths and exit counts --------------------------------------
// The keep-alive guest serves a file of at most one 4 KB body window from a
// single readfile and holds the response pending until its next receive;
// larger files stream.  Every mode must put the same bytes on the wire.

constexpr size_t kGuestWindow = 4096;

// Body bytes with a position-dependent pattern, so a misplaced chunk shows.
std::string PatternBody(size_t n, int seed) {
  std::string body(n, 'a');
  for (size_t i = 0; i < n; ++i) {
    body[i] = static_cast<char>('a' + (i * 7 + i / 251 + static_cast<size_t>(seed)) % 26);
  }
  return body;
}

std::string Get(const std::string& path, bool close = false) {
  return "GET " + path + " HTTP/1.1\r\nHost: x\r\n" + (close ? "Connection: close\r\n" : "") +
         "\r\n";
}

std::string Drained(wasp::ByteChannel& channel) {
  const auto bytes = channel.host().Drain();
  return std::string(bytes.begin(), bytes.end());
}

vnet::ConnectionOptions KeepAlive() {
  vnet::ConnectionOptions conn;
  conn.keep_alive = true;
  return conn;
}

TEST_P(ServerModeTest, KeepAliveServesFilesAroundTheBodyWindowByteExact) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  const size_t sizes[] = {kGuestWindow - 1, kGuestWindow, kGuestWindow + 1,
                          3 * kGuestWindow + 5};
  std::vector<std::string> bodies;
  for (size_t i = 0; i < 4; ++i) {
    bodies.push_back(PatternBody(sizes[i], static_cast<int>(i)));
    files.PutFile("/f" + std::to_string(i), bodies.back());
  }
  vnet::StaticHttpServer server(&runtime, &files);
  for (size_t i = 0; i < 4; ++i) {
    wasp::ByteChannel channel;
    channel.host().WriteString(Get("/f" + std::to_string(i), /*close=*/true));
    auto stats = server.HandleConnection(channel, GetParam(), KeepAlive());
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->r2xx, 1u) << sizes[i];
    EXPECT_TRUE(Drained(channel) == vnet::BuildResponse(200, bodies[i])) << sizes[i] << " B";
  }
  // All of them on one connection, alternating the window path and the
  // streaming path, so the cached 200 head is rebuilt as the size changes.
  wasp::ByteChannel channel;
  std::string expected;
  const size_t order[] = {2, 0, 3, 1, 0};
  for (size_t k = 0; k < 5; ++k) {
    channel.host().WriteString(Get("/f" + std::to_string(order[k]), /*close=*/k == 4));
    expected += vnet::BuildResponse(200, bodies[order[k]]);
  }
  auto stats = server.HandleConnection(channel, GetParam(), KeepAlive());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->r2xx, 5u);
  EXPECT_TRUE(Drained(channel) == expected);
}

TEST_P(ServerModeTest, KeepAliveServes404Then200OnOneConnection) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  const std::string body = PatternBody(100, 3);
  files.PutFile("/f.txt", body);
  vnet::StaticHttpServer server(&runtime, &files);
  wasp::ByteChannel channel;
  channel.host().WriteString(Get("/missing") + Get("/f.txt", /*close=*/true));
  auto stats = server.HandleConnection(channel, GetParam(), KeepAlive());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->requests, 2u);
  EXPECT_EQ(stats->r2xx, 1u);
  EXPECT_EQ(stats->r4xx, 1u);
  EXPECT_EQ(Drained(channel), vnet::BuildResponse(404, "") + vnet::BuildResponse(200, body));
}

TEST_P(ServerModeTest, KeepAlivePipelinedResponsesLeaveInRequestOrder) {
  // A window-sized file, a request with a body that must be drained (its
  // pending response flushes on the drain's first receive) for a streamed
  // file, a 404, and a final close — answered strictly in request order.
  wasp::Runtime runtime;
  wasp::HostEnv files;
  const std::string a = PatternBody(300, 1);
  const std::string b = PatternBody(kGuestWindow + 904, 2);
  files.PutFile("/a", a);
  files.PutFile("/b", b);
  vnet::StaticHttpServer server(&runtime, &files);
  wasp::ByteChannel channel;
  channel.host().WriteString(Get("/a") +
                             "POST /b HTTP/1.1\r\nHost: x\r\nContent-Length: 3000\r\n\r\n" +
                             std::string(3000, 'p') + Get("/missing") + Get("/a", true));
  auto stats = server.HandleConnection(channel, GetParam(), KeepAlive());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->requests, 4u);
  EXPECT_EQ(stats->r2xx, 3u);
  EXPECT_EQ(stats->r4xx, 1u);
  EXPECT_TRUE(Drained(channel) == vnet::BuildResponse(200, a) + vnet::BuildResponse(200, b) +
                                      vnet::BuildResponse(404, "") + vnet::BuildResponse(200, a));
}

// --- One request contract: the guests frame and limit requests as the host does --

TEST_P(ServerModeTest, KeepAliveTrimsSpaceBeforeAHeaderColon) {
  // "Host : x" names Host for the host parser, which trims the name; the
  // keep-alive guest must agree, or an HTTP/1.1 request is a Host-less 400.
  wasp::Runtime runtime;
  wasp::HostEnv files;
  const std::string body = PatternBody(100, 5);
  files.PutFile("/f.txt", body);
  vnet::StaticHttpServer server(&runtime, &files);
  wasp::ByteChannel channel;
  channel.host().WriteString("GET /f.txt HTTP/1.1\r\nHost : x\r\n\r\n");
  channel.host().CloseWrite();
  auto stats = server.HandleConnection(channel, GetParam(), KeepAlive());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->status, 200);
  EXPECT_EQ(stats->r2xx, 1u);
  EXPECT_EQ(Drained(channel), vnet::BuildResponse(200, body));
}

TEST_P(ServerModeTest, KeepAliveBodyDeclaredWithSpaceBeforeColonIsNotARequest) {
  // "Content-Length : 28" declares a 28-byte body to the host parser, so
  // the listener frames one request.  A guest that misses it would serve
  // the body as a second, smuggled request.
  wasp::Runtime runtime;
  wasp::HostEnv files;
  const std::string body = PatternBody(100, 6);
  files.PutFile("/f.txt", body);
  vnet::StaticHttpServer server(&runtime, &files);
  wasp::ByteChannel channel;
  channel.host().WriteString(
      "POST /f.txt HTTP/1.1\r\nHost: x\r\nContent-Length : 28\r\n\r\n"
      "GET /b HTTP/1.1\r\nHost: x\r\n\r\n");
  channel.host().CloseWrite();
  auto stats = server.HandleConnection(channel, GetParam(), KeepAlive());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->requests, 1u);
  EXPECT_EQ(stats->r2xx, 1u);
  EXPECT_EQ(stats->r4xx, 0u);
  EXPECT_EQ(Drained(channel), vnet::BuildResponse(200, body));
}

// A GET of /f.txt whose head is exactly `bytes` long, CRLFCRLF included.
std::string HeadOfSize(size_t bytes) {
  const std::string prefix = "GET /f.txt HTTP/1.1\r\nHost: x\r\nX-Pad: ";
  return prefix + std::string(bytes - prefix.size() - 4, 'p') + "\r\n\r\n";
}

TEST_P(ServerModeTest, HeadOfTheLimitServesAndOneByteMoreGets413) {
  // kMaxHeadBytes is the guests' receive window, and every mode applies it
  // the same way, single-shot and keep-alive.
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/f.txt", std::string(100, 'z'));
  vnet::StaticHttpServer server(&runtime, &files);
  for (const bool keep_alive : {false, true}) {
    for (const size_t bytes : {vnet::kMaxHeadBytes, vnet::kMaxHeadBytes + 1}) {
      const int want = bytes == vnet::kMaxHeadBytes ? 200 : 413;
      wasp::ByteChannel channel;
      channel.host().WriteString(HeadOfSize(bytes));
      channel.host().CloseWrite();
      vnet::ConnectionOptions conn;
      conn.keep_alive = keep_alive;
      auto stats = server.HandleConnection(channel, GetParam(), conn);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_EQ(stats->status, want) << bytes << " B, keep_alive=" << keep_alive;
      EXPECT_EQ(Drained(channel).rfind("HTTP/1.1 " + std::to_string(want), 0), 0u)
          << bytes << " B, keep_alive=" << keep_alive;
    }
  }
}

// Reads one Content-Length-framed response off the channel's host end
// (leftover bytes stay in *stream); true iff it is a 200.
bool Read200(wasp::ByteChannel& channel, std::string* stream) {
  char buf[4096];
  while (true) {
    auto head = vnet::FrameResponseHead(*stream);
    if (head.ok() && stream->size() >= head->head_bytes + head->content_length) {
      stream->erase(0, head->head_bytes + head->content_length);
      return head->status == 200;
    }
    if (!head.ok() && head.status().code() != vbase::Code::kFailedPrecondition) {
      return false;
    }
    const uint64_t n = channel.host().Read(buf, sizeof(buf));
    if (n == 0) {
      return false;
    }
    stream->append(buf, n);
  }
}

// Serves `n` GETs of /f.txt on one keep-alive connection.  Pipelined: every
// request is written before the server starts; otherwise each is written
// once the previous response has arrived.  The connection ends with
// Connection: close on the last request, or with the client's EOF.
vbase::Result<vnet::ServeStats> ServeGets(vnet::StaticHttpServer& server, vnet::ServeMode mode,
                                          int n, bool pipelined, bool close) {
  wasp::ByteChannel channel;
  const auto request = [&](int k) { return Get("/f.txt", close && k + 1 == n); };
  for (int k = 0; k < (pipelined ? n : 1); ++k) {
    channel.host().WriteString(request(k));
  }
  if (pipelined && !close) {
    channel.host().CloseWrite();
  }
  auto served = std::async(std::launch::async,
                           [&] { return server.HandleConnection(channel, mode, KeepAlive()); });
  std::string stream;
  bool ok = true;
  for (int k = 1; k <= n && ok; ++k) {
    ok = Read200(channel, &stream);
    if (ok && !pipelined && k < n) {
      channel.host().WriteString(request(k));
    }
  }
  EXPECT_TRUE(ok) << "a response was not a 200";
  if (!pipelined && (!close || !ok)) {
    channel.host().CloseWrite();
  }
  return served.get();
}

TEST_P(ServerModeTest, KeepAliveGetsCostTwoExitsEachPlusOneAtEofPlusOneCold) {
  // A kept-alive GET of a window-sized file costs two exits (readfile, and
  // the send_recv, send or send_exit that flushes its response).  With
  // Connection: close the last response leaves in send_exit, the
  // connection's exit; at EOF the send_recv that flushes it sees the EOF and
  // return_exit follows, one exit more.  A snapshot-less connection adds its
  // first receive; a warm restore completes it before the first vmrun (the
  // snapshot was taken inside it).  So a warm connection costs 2N with
  // Connection: close and 2N+1 at EOF, a snapshot-less one 2N+1 and 2N+2,
  // however the requests arrive.
  constexpr int kRequests = 5;
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/f.txt", PatternBody(512, 4));
  vnet::StaticHttpServer server(&runtime, &files);
  // Warm-up: the first snapshot-mode invocation also takes the snapshot.
  ASSERT_TRUE(ServeGets(server, GetParam(), 1, true, true).ok());
  const uint64_t cold = GetParam() == vnet::ServeMode::kVirtine ? 1 : 0;
  for (const bool pipelined : {true, false}) {
    for (const bool close : {true, false}) {
      const uint64_t want =
          GetParam() == vnet::ServeMode::kNative ? 0 : 2 * kRequests + (close ? 0 : 1) + cold;
      auto stats = ServeGets(server, GetParam(), kRequests, pipelined, close);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_EQ(stats->r2xx, static_cast<uint64_t>(kRequests));
      EXPECT_EQ(stats->io_exits, want) << (pipelined ? "pipelined" : "one at a time")
                                       << (close ? ", Connection: close" : ", EOF");
    }
  }
}

TEST(Server, KeepAliveNativeEnforcesMaxRequests) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/f.txt", std::string(8, 'z'));
  vnet::StaticHttpServer server(&runtime, &files);
  vnet::ConnectionOptions conn;
  conn.keep_alive = true;
  conn.max_requests = 2;
  wasp::ByteChannel channel;
  for (int i = 0; i < 4; ++i) {
    channel.host().WriteString("GET /f.txt HTTP/1.1\r\nHost: x\r\n\r\n");
  }
  auto stats = server.HandleConnection(channel, vnet::ServeMode::kNative, conn);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->requests, 2u);
}

TEST(Server, VirtineHandlerUsesExactlySevenHypercalls) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/x", std::string("content"));
  vnet::StaticHttpServer server(&runtime, &files);
  wasp::ByteChannel channel;
  channel.host().WriteString("GET /x HTTP/1.0\r\n\r\n");
  auto stats = server.HandleConnection(channel, vnet::ServeMode::kVirtine);
  ASSERT_TRUE(stats.ok());
  // Section 6.3: recv, stat, open, read, send, close, exit.
  EXPECT_EQ(stats->io_exits, 7u);
}

TEST(Loadgen, ClosedLoopCollectsAllLatencies) {
  std::atomic<int> calls{0};
  auto result = vnet::RunClosedLoop(4, 25, [&]() -> double {
    calls.fetch_add(1);
    return 10.0;
  });
  EXPECT_EQ(calls.load(), 100);
  EXPECT_EQ(result.latencies_us.size(), 100u);
  EXPECT_EQ(result.failures, 0u);
  EXPECT_NEAR(result.harmonic_mean_rps, 1e5, 1.0);
}

TEST(Loadgen, FailuresAreCounted) {
  auto result = vnet::RunClosedLoop(2, 10, []() -> double { return -1.0; });
  EXPECT_EQ(result.failures, 20u);
  EXPECT_TRUE(result.latencies_us.empty());
}

// --- Serverless (Vespid + simulator) --------------------------------------------

TEST(Vespid, RegistersAndInvokesBase64) {
  wasp::Runtime runtime;
  vnet::Vespid platform(&runtime);
  ASSERT_TRUE(platform.Register("b64", vjs::Base64ScriptSource()).ok());
  const std::vector<uint8_t> payload = {'a', 'b', 'c', 'd'};
  auto first = platform.Invoke("b64", payload);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->cold);
  EXPECT_EQ(std::string(first->output.begin(), first->output.end()),
            vjs::HostBase64(payload));
  auto second = platform.Invoke("b64", payload);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->cold);
  EXPECT_LT(second->modeled_cycles, first->modeled_cycles);
}

TEST(Vespid, UnknownFunctionIsAnError) {
  wasp::Runtime runtime;
  vnet::Vespid platform(&runtime);
  EXPECT_FALSE(platform.Invoke("missing", {}).ok());
}

TEST(Vespid, BadScriptFailsRegistration) {
  wasp::Runtime runtime;
  vnet::Vespid platform(&runtime);
  EXPECT_FALSE(platform.Register("bad", "var = while").ok());
}

TEST(BurstSim, ColdStartsSpikeOnBurstsForSlowColdExecutors) {
  const std::vector<vnet::LoadPhase> pattern = {{5, 2}, {100, 2}, {5, 2}};
  vnet::ExecutorModel slow{"containers", 20000.0, 400000.0, 16, 1.0};
  vnet::ExecutorModel fast{"virtines", 2000.0, 200.0, 64, 600.0};
  const auto slow_result = vnet::SimulateBurstyLoad(pattern, slow);
  const auto fast_result = vnet::SimulateBurstyLoad(pattern, fast);
  EXPECT_EQ(slow_result.total_requests, fast_result.total_requests);
  EXPECT_GT(slow_result.total_cold_starts, 1u);
  EXPECT_GT(slow_result.latency_us.p99, 10.0 * fast_result.latency_us.p99);
}

TEST(BurstSim, DeterministicForSeed) {
  const std::vector<vnet::LoadPhase> pattern = {{10, 1}, {50, 1}};
  vnet::ExecutorModel model{"m", 1000.0, 10000.0, 8, 2.0};
  const auto a = vnet::SimulateBurstyLoad(pattern, model, 5);
  const auto b = vnet::SimulateBurstyLoad(pattern, model, 5);
  EXPECT_EQ(a.latency_us.mean, b.latency_us.mean);
  EXPECT_EQ(a.total_cold_starts, b.total_cold_starts);
}

TEST(Loadgen, ArrivalTraceIsDeterministicAndPhaseShaped) {
  const std::vector<vnet::LoadPhase> phases = {{10, 1}, {50, 1}};
  const auto a = vnet::GenerateArrivalTrace(phases, 5);
  const auto b = vnet::GenerateArrivalTrace(phases, 5);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 60u);  // 10 + 50 arrivals
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  const auto c = vnet::GenerateArrivalTrace(phases, 6);
  EXPECT_NE(a, c);  // jitter depends on the seed
}

TEST(Loadgen, VirtualClosedLoopScalesWithLanes) {
  // 8 clients, constant 100 us service: 1 lane queues 8 deep, 8 lanes don't.
  const std::vector<double> services(64, 100.0);
  const auto one = vnet::ClosedLoopVirtualTime(8, 1, services);
  const auto eight = vnet::ClosedLoopVirtualTime(8, 8, services);
  EXPECT_EQ(one.latencies_us.size(), services.size());
  EXPECT_EQ(eight.latencies_us.size(), services.size());
  EXPECT_NEAR(eight.latency.mean, 100.0, 1.0);
  // Steady state queues 8 deep (800 us); the first round ramps 100..800, so
  // the mean sits just under the steady-state plateau.
  EXPECT_NEAR(one.latency.p99, 800.0, 1.0);
  EXPECT_GT(one.latency.mean, 700.0);
  EXPECT_LE(one.latency.mean, 800.0);
  EXPECT_GT(eight.harmonic_mean_rps, 7.0 * one.harmonic_mean_rps);
  // Negative services count as failures and take no lane time.
  const auto failed = vnet::ClosedLoopVirtualTime(2, 2, {100.0, -1.0, 100.0});
  EXPECT_EQ(failed.failures, 1u);
  EXPECT_EQ(failed.latencies_us.size(), 2u);
}

// --- Differential: executor replay vs the analytic simulator -----------------

// On a small trace with one serving lane, ReplayBurstyLoad (real executor
// invocations in virtual time) and SimulateBurstyLoad (analytic model
// calibrated to one cold and one warm invocation of the same function) must
// agree exactly on the request count and the cold-start count, and bucket
// for bucket on completions.
//
// Tolerance note: the two sides price requests in different currencies —
// the replay uses each real invocation's modeled cycles (which vary by a
// few percent across requests), the model a single constant warm cost — so
// a request completing within ~a service time of a bucket boundary can land
// one bucket apart.  With services (~2-5 ms) four orders
// of magnitude below the 1 s buckets this affects at most edge requests;
// per-bucket completions get a +/-2 band while the totals must be exact.
TEST(BurstReplay, MatchesCalibratedSimulatorOnSmallTrace) {
  wasp::Runtime runtime;
  vnet::Vespid platform(&runtime);
  ASSERT_TRUE(platform.Register("b64", vjs::Base64ScriptSource()).ok());
  const std::vector<uint8_t> payload = {'d', 'i', 'f', 'f'};
  const std::vector<vnet::LoadPhase> trace = {{8, 1}, {25, 1}};
  constexpr uint64_t kSeed = 7;

  // Calibrate the model on a platform of its own: a single instance that
  // never idles out spawns exactly once, like the replay's single cold
  // first touch.
  wasp::Runtime calibration_runtime;
  vnet::Vespid calibration(&calibration_runtime);
  ASSERT_TRUE(calibration.Register("b64", vjs::Base64ScriptSource()).ok());
  auto cold = calibration.Invoke("b64", payload);
  auto warm = calibration.Invoke("b64", payload);
  ASSERT_TRUE(cold.ok() && warm.ok());
  ASSERT_TRUE(cold->cold && !warm->cold);
  const double warm_us = vbase::CyclesToMicros(warm->modeled_cycles);
  vnet::ExecutorModel model{"calibrated", warm_us,
                            std::max(0.0, vbase::CyclesToMicros(cold->modeled_cycles) - warm_us),
                            1, 600.0};

  auto replay = platform.ReplayBurstyLoad("b64", trace, payload, {/*concurrency=*/1, kSeed});
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  const vnet::SimResult sim = vnet::SimulateBurstyLoad(trace, model, kSeed);

  EXPECT_EQ(replay->sim.total_requests, sim.total_requests);
  EXPECT_EQ(replay->sim.total_requests, 33u);  // 8 + 25 arrivals, shared trace
  EXPECT_EQ(replay->sim.total_cold_starts, sim.total_cold_starts);
  EXPECT_EQ(replay->sim.total_cold_starts, 1u);

  // Bucket completion totals: exact in aggregate, +/-2 per bucket.
  std::map<int64_t, double> replay_completed;
  std::map<int64_t, double> sim_completed;
  double replay_total = 0;
  double sim_total = 0;
  for (const auto& point : replay->sim.timeline) {
    replay_completed[static_cast<int64_t>(point.t_s)] = point.completed_rps;
    replay_total += point.completed_rps;
  }
  for (const auto& point : sim.timeline) {
    sim_completed[static_cast<int64_t>(point.t_s)] = point.completed_rps;
    sim_total += point.completed_rps;
  }
  EXPECT_EQ(replay_total, sim_total);
  EXPECT_EQ(replay_total, static_cast<double>(sim.total_requests));
  for (const auto& [bucket, completed] : sim_completed) {
    const auto it = replay_completed.find(bucket);
    const double replayed = it != replay_completed.end() ? it->second : 0;
    EXPECT_NEAR(replayed, completed, 2.0) << "bucket " << bucket;
  }
}

// --- Echo guest (Figure 4 workload) -----------------------------------------------

TEST(Echo, GuestEchoesAndReportsMilestones) {
  auto image = vcc::CompileProgram(vrt::VlibcSource() + vnet::EchoHandlerSource(), "main",
                                   vrt::Env::kProt32);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  wasp::Runtime runtime;
  wasp::ByteChannel channel;
  channel.host().WriteString("ping!");
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.word_bytes = 4;
  spec.policy = wasp::kPolicyStream | wasp::MaskOf(wasp::kHcReturnData);
  spec.channel = &channel.guest();
  auto outcome = runtime.Invoke(spec);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  auto echoed = channel.host().Drain();
  EXPECT_EQ(std::string(echoed.begin(), echoed.end()), "ping!");
  ASSERT_EQ(outcome.output.size(), 12u);
  uint32_t mb[3];
  memcpy(mb, outcome.output.data(), sizeof(mb));
  EXPECT_LT(mb[0], mb[1]);  // entry < after-recv
  EXPECT_LT(mb[1], mb[2]);  // after-recv < after-send
}

}  // namespace
