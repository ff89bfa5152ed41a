#include "src/vrt/vlibc.h"

#include <sstream>

#include "src/wasp/abi.h"

namespace vrt {

const std::string& VlibcSource() {
  static const std::string kSource = [] {
    std::ostringstream os;
    os << R"vc(
// ======================= vlibc (vcc dialect) =========================

int exit(int code) { return __hc1()vc" << wasp::kHcExit << R"vc(, code); }
int console_write(char *s, int n) { return __hc2()vc" << wasp::kHcConsole << R"vc(, s, n); }
int v_snapshot() { return __hc0()vc" << wasp::kHcSnapshot << R"vc(); }
int get_data(char *buf, int cap) { return __hc2()vc" << wasp::kHcGetData << R"vc(, buf, cap); }
int return_data(char *buf, int n) { return __hc2()vc" << wasp::kHcReturnData << R"vc(, buf, n); }
// The folds.  return_data(buf, n) then exit(code), in one exit; never
// returns.  send_exit does the same after a send, from a five-word message.
// Their input-side partners, snapshot_get_data and snapshot_recv, have no
// wrapper: a restore resumes inside the call, so a guest issues it inline
// from a frame no later call overwrites.
int return_exit(int code, char *buf, int n) {
  return __hc3()vc" << wasp::kHcReturnExit << R"vc(, code, buf, n);
}
// msg = [out, out_len, data, data_len, code]: sends out_len bytes (a peer
// that stopped reading does not stop it), then return_exit(code, data,
// data_len); never returns.
int send_exit(int *msg) { return __hc1()vc" << wasp::kHcSendExit << R"vc(, msg); }
int open(char *path) { return __hc1()vc" << wasp::kHcOpen << R"vc(, path); }
int read(int fd, char *buf, int n) { return __hc3()vc" << wasp::kHcRead << R"vc(, fd, buf, n); }
int write(int fd, char *buf, int n) { return __hc3()vc" << wasp::kHcWrite << R"vc(, fd, buf, n); }
int close(int fd) { return __hc1()vc" << wasp::kHcClose << R"vc(, fd); }
int readfile(char *path, char *buf, int cap) {
  return __hc3()vc" << wasp::kHcReadFile << R"vc(, path, buf, cap);
}
int send(char *buf, int n) { return __hc2()vc" << wasp::kHcSend << R"vc(, buf, n); }
int recv(char *buf, int cap) { return __hc2()vc" << wasp::kHcRecv << R"vc(, buf, cap); }
// msg = [out, out_len, in, in_cap]: sends out_len bytes, then receives.
int send_recv(int *msg) { return __hc1()vc" << wasp::kHcSendRecv << R"vc(, msg); }

int stat_size(char *path) {
  int st[2];
  if (__hc2()vc" << wasp::kHcStat << R"vc(, path, st) < 0) {
    return -1;
  }
  return st[0];
}

// ---------------- string / memory ----------------

int strlen(char *s) {
  int n;
  n = 0;
  while (s[n]) {
    n = n + 1;
  }
  return n;
}

int strcmp(char *a, char *b) {
  int i;
  i = 0;
  while (a[i] && b[i] && a[i] == b[i]) {
    i = i + 1;
  }
  return a[i] - b[i];
}

char *strcpy(char *dst, char *src) {
  int i;
  i = 0;
  while (src[i]) {
    dst[i] = src[i];
    i = i + 1;
  }
  dst[i] = 0;
  return dst;
}

char *strcat(char *dst, char *src) {
  strcpy(dst + strlen(dst), src);
  return dst;
}

char *memcpy(char *dst, char *src, int n) {
  int i;
  for (i = 0; i < n; i = i + 1) {
    dst[i] = src[i];
  }
  return dst;
}

char *memset(char *dst, int value, int n) {
  int i;
  for (i = 0; i < n; i = i + 1) {
    dst[i] = value;
  }
  return dst;
}

int memcmp(char *a, char *b, int n) {
  int i;
  for (i = 0; i < n; i = i + 1) {
    if (a[i] != b[i]) {
      return a[i] - b[i];
    }
  }
  return 0;
}

int atoi(char *s) {
  int v;
  int neg;
  int i;
  v = 0;
  neg = 0;
  i = 0;
  if (s[0] == '-') {
    neg = 1;
    i = 1;
  }
  while (s[i] >= '0' && s[i] <= '9') {
    v = v * 10 + (s[i] - '0');
    i = i + 1;
  }
  if (neg) {
    return -v;
  }
  return v;
}

// Writes the decimal rendering of v into buf; returns its length.
int itoa(char *buf, int v) {
  char tmp[24];
  int i;
  int j;
  int neg;
  neg = 0;
  i = 0;
  if (v < 0) {
    neg = 1;
    v = -v;
  }
  if (v == 0) {
    tmp[i] = '0';
    i = i + 1;
  }
  while (v > 0) {
    tmp[i] = '0' + v % 10;
    i = i + 1;
    v = v / 10;
  }
  if (neg) {
    tmp[i] = '-';
    i = i + 1;
  }
  j = 0;
  while (i > 0) {
    i = i - 1;
    buf[j] = tmp[i];
    j = j + 1;
  }
  buf[j] = 0;
  return j;
}

// Hexadecimal rendering of v as unsigned (lowercase, no 0x prefix); returns
// length.  >> is arithmetic, so a negative v stops at one digit per nibble.
int uitoa_hex(char *buf, int v) {
  char tmp[20];
  int i;
  int j;
  int d;
  i = 0;
  if (v == 0) {
    tmp[i] = '0';
    i = i + 1;
  }
  while (v && i < sizeof(int) * 2) {
    d = v & 15;
    if (d < 10) {
      tmp[i] = '0' + d;
    } else {
      tmp[i] = 'a' + d - 10;
    }
    i = i + 1;
    v = v >> 4;
  }
  j = 0;
  while (i > 0) {
    i = i - 1;
    buf[j] = tmp[i];
    j = j + 1;
  }
  buf[j] = 0;
  return j;
}

int puts(char *s) { return console_write(s, strlen(s)); }

int print_int(int v) {
  char buf[24];
  int n;
  n = itoa(buf, v);
  return console_write(buf, n);
}

// ---------------- allocator ----------------
// Bump allocator over the guest heap (256 KB upward, below the stack), with
// recycling free list per size class kept deliberately simple: virtine
// heaps are wiped on every reset, so leak-freedom comes from the hypervisor
// cleaning pages, not from the allocator.

int __heap_ptr = 0;

char *malloc(int n) {
  char *p;
  if (__heap_ptr == 0) {
    __heap_ptr = 262144;
  }
  n = (n + 15) & ~15;
  p = __heap_ptr;
  __heap_ptr = __heap_ptr + n;
  return p;
}

int free(char *p) {
  // Reclamation is wholesale on virtine reset (pool clean); see above.
  return 0;
}
// ======================= end vlibc =========================
)vc";
    return os.str();
  }();
  return kSource;
}

}  // namespace vrt
