// AES-128 (FIPS-197) + CBC mode, twice:
//   * a host C++ reference implementation (the "native OpenSSL" baseline of
//     Section 6.4), validated against FIPS/NIST vectors, and
//   * a guest implementation in the vcc dialect (GuestAesSource) that runs
//     the same cipher inside a virtine, fed through snapshot_get_data and
//     answering through return_exit.
//
// The paper isolates OpenSSL's 128-bit AES block cipher in a virtine to
// study the cost of isolating a deeply buried, heavily optimized function;
// this module reproduces that experiment end to end.
#ifndef SRC_VAES_AES_H_
#define SRC_VAES_AES_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace vaes {

using Block = std::array<uint8_t, 16>;
using Key = std::array<uint8_t, 16>;

// Expands a 128-bit key into 176 bytes of round keys.
std::array<uint8_t, 176> ExpandKey(const Key& key);

// Encrypts one 16-byte block (ECB primitive).
Block EncryptBlock(const std::array<uint8_t, 176>& round_keys, const Block& in);

// CBC encryption; `data` must be a multiple of 16 bytes (caller pads).
std::vector<uint8_t> EncryptCbc(const Key& key, const Block& iv,
                                const std::vector<uint8_t>& data);

// PKCS#7 pad to a 16-byte multiple.
std::vector<uint8_t> Pkcs7Pad(const std::vector<uint8_t>& data);

// The guest AES-128-CBC program (vcc dialect).  Protocol: snapshot_get_data
// delivers key(16) | iv(16) | plaintext(n*16); the program encrypts and
// ships the ciphertext back via return_exit, exit code = its length.  The
// snapshot is taken inside the input call, so callers that snapshot set
// VirtineSpec::crt_snapshot = false.  Entry point: main().
std::string GuestAesSource();

}  // namespace vaes

#endif  // SRC_VAES_AES_H_
