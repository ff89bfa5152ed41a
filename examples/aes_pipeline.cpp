// AES-128-CBC in a virtine (the Section 6.4 OpenSSL case study): the block
// cipher runs inside an isolated VM fed through snapshot_get_data and
// answering through return_exit, and the ciphertext is validated against
// the host reference implementation.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/vaes/aes.h"
#include "src/vcc/vcc.h"
#include "src/vrt/vlibc.h"
#include "src/wasp/runtime.h"

int main() {
  auto image = vcc::CompileProgram(vrt::VlibcSource() + vaes::GuestAesSource(), "main",
                                   vrt::Env::kLong64);
  if (!image.ok()) {
    std::fprintf(stderr, "compile failed: %s\n", image.status().ToString().c_str());
    return 1;
  }
  std::printf("AES virtine image: %zu bytes\n", image->bytes.size());

  const vaes::Key key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                         0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  const vaes::Block iv = {};
  const std::string message = "virtines: isolating functions at the hardware limit!";
  const std::vector<uint8_t> plaintext =
      vaes::Pkcs7Pad(std::vector<uint8_t>(message.begin(), message.end()));

  // Marshal key | iv | plaintext as the call's input.
  std::vector<uint8_t> input;
  input.insert(input.end(), key.begin(), key.end());
  input.insert(input.end(), iv.begin(), iv.end());
  input.insert(input.end(), plaintext.begin(), plaintext.end());

  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.key = "aes-cbc";
  spec.policy = wasp::kPolicyManaged;
  spec.use_snapshot = true;
  spec.crt_snapshot = false;  // the guest snapshots inside its input call
  spec.input = &input;

  for (int i = 0; i < 2; ++i) {
    auto outcome = runtime.Invoke(spec);
    if (!outcome.status.ok()) {
      std::fprintf(stderr, "virtine failed: %s\n", outcome.status.ToString().c_str());
      return 1;
    }
    const std::vector<uint8_t> expected = vaes::EncryptCbc(key, iv, plaintext);
    const bool match = outcome.output == expected;
    std::printf("run %d (%s): %zu ciphertext bytes, %s, %8.1f us modeled\n", i + 1,
                outcome.stats.restored_snapshot ? "snapshot restore" : "full boot",
                outcome.output.size(), match ? "MATCHES host AES" : "MISMATCH",
                vbase::CyclesToMicros(outcome.stats.total_cycles));
    if (!match) {
      return 1;
    }
  }
  return 0;
}
