#include "src/vrt/vlibc.h"

namespace vrt {

const std::string& VlibcSource() {
  static const std::string kSource = R"vlibc(
// ======================= vlibc (vcc dialect) =========================
// Hypercall ports mirror src/wasp/abi.h; they must be integer literals.

int exit(int code)                    { return __hc1(1, code); }
int console_write(char *s, int n)     { return __hc2(2, s, n); }
int v_snapshot()                      { return __hc0(3); }
int get_data(char *buf, int cap)      { return __hc2(4, buf, cap); }
int return_data(char *buf, int n)     { return __hc2(5, buf, n); }
// return_data(buf, n) then exit(code), in one exit; never returns.
// Its input-side partner, snapshot_get_data (port 6), has no wrapper: a
// restore resumes inside that call, so a guest issues it inline as
// __hc2(6, buf, cap) from a frame no later call overwrites.
int return_exit(int code, char *buf, int n) { return __hc3(7, code, buf, n); }
int open(char *path)                  { return __hc1(16, path); }
int read(int fd, char *buf, int n)    { return __hc3(17, fd, buf, n); }
int write(int fd, char *buf, int n)   { return __hc3(18, fd, buf, n); }
int close(int fd)                     { return __hc1(19, fd); }
int readfile(char *path, char *buf, int cap) { return __hc3(21, path, buf, cap); }
int send(char *buf, int n)            { return __hc2(32, buf, n); }
int recv(char *buf, int cap)          { return __hc2(33, buf, cap); }
// msg = [out, out_len, in, in_cap]: sends out_len bytes, then receives.
int send_recv(int *msg)               { return __hc1(34, msg); }

int stat_size(char *path) {
  int st[2];
  if (__hc2(20, path, st) < 0) {
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

// Hexadecimal rendering (lowercase, no 0x prefix); returns length.
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
  while (v) {
    d = v & 15;
    if (d < 10) {
      tmp[i] = '0' + d;
    } else {
      tmp[i] = 'a' + d - 10;
    }
    i = i + 1;
    v = (v >> 4) & 1152921504606846975;  // logical shift: clear sign bits
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
)vlibc";
  return kSource;
}

}  // namespace vrt
