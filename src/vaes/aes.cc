#include "src/vaes/aes.h"

#include <sstream>

#include "src/wasp/abi.h"

namespace vaes {
namespace {

constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab,
    0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4,
    0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71,
    0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6,
    0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb,
    0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45,
    0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44,
    0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a,
    0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49,
    0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25,
    0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e,
    0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1,
    0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb,
    0x16,
};

constexpr uint8_t kRcon[11] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                               0x20, 0x40, 0x80, 0x1b, 0x36};

uint8_t Xtime(uint8_t x) {
  return static_cast<uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

}  // namespace

std::array<uint8_t, 176> ExpandKey(const Key& key) {
  std::array<uint8_t, 176> rk;
  for (int i = 0; i < 16; ++i) {
    rk[i] = key[i];
  }
  for (int i = 4; i < 44; ++i) {
    uint8_t t0 = rk[(i - 1) * 4];
    uint8_t t1 = rk[(i - 1) * 4 + 1];
    uint8_t t2 = rk[(i - 1) * 4 + 2];
    uint8_t t3 = rk[(i - 1) * 4 + 3];
    if (i % 4 == 0) {
      const uint8_t tmp = t0;
      t0 = kSbox[t1] ^ kRcon[i / 4];
      t1 = kSbox[t2];
      t2 = kSbox[t3];
      t3 = kSbox[tmp];
    }
    rk[i * 4] = rk[(i - 4) * 4] ^ t0;
    rk[i * 4 + 1] = rk[(i - 4) * 4 + 1] ^ t1;
    rk[i * 4 + 2] = rk[(i - 4) * 4 + 2] ^ t2;
    rk[i * 4 + 3] = rk[(i - 4) * 4 + 3] ^ t3;
  }
  return rk;
}

Block EncryptBlock(const std::array<uint8_t, 176>& rk, const Block& in) {
  Block s = in;
  auto add_rk = [&](int round) {
    for (int i = 0; i < 16; ++i) {
      s[i] ^= rk[round * 16 + i];
    }
  };
  auto sub_bytes = [&] {
    for (auto& b : s) {
      b = kSbox[b];
    }
  };
  auto shift_rows = [&] {
    uint8_t t = s[1];
    s[1] = s[5]; s[5] = s[9]; s[9] = s[13]; s[13] = t;
    t = s[2]; s[2] = s[10]; s[10] = t;
    t = s[6]; s[6] = s[14]; s[14] = t;
    t = s[15]; s[15] = s[11]; s[11] = s[7]; s[7] = s[3]; s[3] = t;
  };
  auto mix_columns = [&] {
    for (int c = 0; c < 4; ++c) {
      const uint8_t a0 = s[c * 4], a1 = s[c * 4 + 1], a2 = s[c * 4 + 2], a3 = s[c * 4 + 3];
      s[c * 4] = Xtime(a0) ^ Xtime(a1) ^ a1 ^ a2 ^ a3;
      s[c * 4 + 1] = a0 ^ Xtime(a1) ^ Xtime(a2) ^ a2 ^ a3;
      s[c * 4 + 2] = a0 ^ a1 ^ Xtime(a2) ^ Xtime(a3) ^ a3;
      s[c * 4 + 3] = Xtime(a0) ^ a0 ^ a1 ^ a2 ^ Xtime(a3);
    }
  };
  add_rk(0);
  for (int round = 1; round < 10; ++round) {
    sub_bytes();
    shift_rows();
    mix_columns();
    add_rk(round);
  }
  sub_bytes();
  shift_rows();
  add_rk(10);
  return s;
}

std::vector<uint8_t> EncryptCbc(const Key& key, const Block& iv,
                                const std::vector<uint8_t>& data) {
  const auto rk = ExpandKey(key);
  std::vector<uint8_t> out(data.size());
  Block chain = iv;
  for (size_t off = 0; off + 16 <= data.size(); off += 16) {
    Block blk;
    for (int i = 0; i < 16; ++i) {
      blk[i] = data[off + i] ^ chain[i];
    }
    chain = EncryptBlock(rk, blk);
    for (int i = 0; i < 16; ++i) {
      out[off + i] = chain[i];
    }
  }
  return out;
}

std::vector<uint8_t> Pkcs7Pad(const std::vector<uint8_t>& data) {
  const size_t pad = 16 - data.size() % 16;
  std::vector<uint8_t> out = data;
  out.insert(out.end(), pad, static_cast<uint8_t>(pad));
  return out;
}

std::string GuestAesSource() {
  // Generate the S-box/Rcon initializers from the host tables so the two
  // implementations can never drift.
  std::ostringstream os;
  os << "char SBOX[256] = {";
  for (int i = 0; i < 256; ++i) {
    os << static_cast<int>(kSbox[i]) << (i + 1 < 256 ? "," : "");
  }
  os << "};\n";
  os << "char RCON[11] = {";
  for (int i = 0; i < 11; ++i) {
    os << static_cast<int>(kRcon[i]) << (i + 1 < 11 ? "," : "");
  }
  os << "};\n";
  os << R"vc(
int xt(int x) {
  x = x << 1;
  if (x & 256) {
    x = x ^ 283;
  }
  return x & 255;
}

int key_expand(char *key, char *rk) {
  int i; int t0; int t1; int t2; int t3; int tmp;
  for (i = 0; i < 16; i = i + 1) {
    rk[i] = key[i];
  }
  for (i = 4; i < 44; i = i + 1) {
    t0 = rk[(i - 1) * 4];
    t1 = rk[(i - 1) * 4 + 1];
    t2 = rk[(i - 1) * 4 + 2];
    t3 = rk[(i - 1) * 4 + 3];
    if (i % 4 == 0) {
      tmp = t0;
      t0 = SBOX[t1] ^ RCON[i / 4];
      t1 = SBOX[t2];
      t2 = SBOX[t3];
      t3 = SBOX[tmp];
    }
    rk[i * 4] = rk[(i - 4) * 4] ^ t0;
    rk[i * 4 + 1] = rk[(i - 4) * 4 + 1] ^ t1;
    rk[i * 4 + 2] = rk[(i - 4) * 4 + 2] ^ t2;
    rk[i * 4 + 3] = rk[(i - 4) * 4 + 3] ^ t3;
  }
  return 0;
}

int add_rk(char *s, char *rk) {
  int i;
  for (i = 0; i < 16; i = i + 1) {
    s[i] = s[i] ^ rk[i];
  }
  return 0;
}

int sub_shift(char *s) {
  int t;
  int i;
  for (i = 0; i < 16; i = i + 1) {
    s[i] = SBOX[s[i]];
  }
  t = s[1]; s[1] = s[5]; s[5] = s[9]; s[9] = s[13]; s[13] = t;
  t = s[2]; s[2] = s[10]; s[10] = t;
  t = s[6]; s[6] = s[14]; s[14] = t;
  t = s[15]; s[15] = s[11]; s[11] = s[7]; s[7] = s[3]; s[3] = t;
  return 0;
}

int mix_columns(char *s) {
  int c; int a0; int a1; int a2; int a3;
  for (c = 0; c < 4; c = c + 1) {
    a0 = s[c * 4];
    a1 = s[c * 4 + 1];
    a2 = s[c * 4 + 2];
    a3 = s[c * 4 + 3];
    s[c * 4]     = xt(a0) ^ xt(a1) ^ a1 ^ a2 ^ a3;
    s[c * 4 + 1] = a0 ^ xt(a1) ^ xt(a2) ^ a2 ^ a3;
    s[c * 4 + 2] = a0 ^ a1 ^ xt(a2) ^ xt(a3) ^ a3;
    s[c * 4 + 3] = xt(a0) ^ a0 ^ a1 ^ a2 ^ xt(a3);
  }
  return 0;
}

int encrypt_block(char *rk, char *s) {
  int r;
  add_rk(s, rk);
  for (r = 1; r < 10; r = r + 1) {
    sub_shift(s);
    mix_columns(s);
    add_rk(s, rk + r * 16);
  }
  sub_shift(s);
  add_rk(s, rk + 160);
  return 0;
}

// Protocol: input = key(16) | iv(16) | plaintext(16*k); CBC-encrypt in
// place and exit with the ciphertext.  The snapshot point is inside the
// input call, snapshot_get_data, so a warm call enters the VM once and
// exits once.  The call is issued inline: the resumed frame is then main's
// own, which no later call overwrites, and main rewrites every local it
// reads after it, so a re-captured snapshot still resumes cleanly.
int main() {
  char rk[176];
  char iv[16];
  char *buf;
  int n; int i; int j;
  buf = malloc(16448);
  n = __hc2()vc" << wasp::kHcSnapshotGetData << R"vc(, buf, 16448);
  if (n < 32) {
    return -1;
  }
  key_expand(buf, rk);
  for (i = 0; i < 16; i = i + 1) {
    iv[i] = buf[16 + i];
  }
  for (j = 32; j + 16 <= n; j = j + 16) {
    for (i = 0; i < 16; i = i + 1) {
      buf[j + i] = buf[j + i] ^ iv[i];
    }
    encrypt_block(rk, buf + j);
    for (i = 0; i < 16; i = i + 1) {
      iv[i] = buf[j + i];
    }
  }
  return_exit(n - 32, buf + 32, n - 32);
  return n - 32;
}
)vc";
  return os.str();
}

}  // namespace vaes
