// Section 6.4: AES-128-CBC in a virtine (the OpenSSL `speed` experiment).
//
// For each block size, one virtine invocation encrypts the buffer
// (snapshot_get_data -> CBC -> return_exit) with snapshotting enabled.
// Isolation overhead = everything the virtine adds on top of the cipher
// itself (shell provisioning, snapshot restore of the ~20 KB image, input
// delivery, and the VM exits the footer reports).  The paper's 17x
// slowdown at 16 KB compares that overhead against a hardware-accelerated
// native cipher; we report both our measured plain-C++ native wall time and
// the slowdown computed against an AES-NI-class baseline (16 GB/s), which
// is the apples-to-apples counterpart of the paper's number.
#include "bench/bench_util.h"
#include "src/base/rng.h"
#include "src/vaes/aes.h"
#include "src/vcc/vcc.h"
#include "src/vrt/vlibc.h"
#include "src/wasp/runtime.h"

int main() {
  benchutil::Header(
      "Section 6.4: OpenSSL-style AES-128-CBC block cipher in a virtine",
      "virtine AES is memory-bound on the snapshot copy (~16us per invocation for a "
      "~21KB image); with a 16KB block the paper sees ~17x vs native OpenSSL");

  auto image = vcc::CompileProgram(vrt::VlibcSource() + vaes::GuestAesSource(), "main",
                                   vrt::Env::kLong64);
  VB_CHECK(image.ok(), image.status().ToString());
  std::printf("virtine AES image: %s (paper: ~21 KB)\n\n",
              vbase::HumanBytes(image->bytes.size()).c_str());

  const vaes::Key key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                         0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  const vaes::Block iv = {};
  vbase::Rng rng(3);

  wasp::Runtime runtime;
  uint64_t warm_exits = 0;  // VM exits per warm invocation, the same at every size
  vbase::Table table({"block", "overhead us", "native C++ us", "slowdown (ours)",
                      "slowdown vs AES-NI-class"});
  for (uint64_t size : {16ULL, 256ULL, 1024ULL, 4096ULL, 16384ULL}) {
    std::vector<uint8_t> plaintext(size);
    for (auto& b : plaintext) {
      b = static_cast<uint8_t>(rng.Next());
    }
    std::vector<uint8_t> input;
    input.insert(input.end(), key.begin(), key.end());
    input.insert(input.end(), iv.begin(), iv.end());
    input.insert(input.end(), plaintext.begin(), plaintext.end());

    wasp::VirtineSpec spec;
    spec.image = &image.value();
    spec.key = "aes-speed";
    spec.policy = wasp::kPolicyManaged;
    spec.use_snapshot = true;
    spec.crt_snapshot = false;  // the guest snapshots inside its input call
    spec.input = &input;

    double overhead_us = 0;
    bool verified = false;
    for (int t = 0; t < 4; ++t) {
      auto outcome = runtime.Invoke(spec);
      VB_CHECK(outcome.status.ok(), outcome.status.ToString());
      if (!verified) {
        VB_CHECK(outcome.output == vaes::EncryptCbc(key, iv, plaintext),
                 "guest ciphertext != host ciphertext");
        verified = true;
      }
      if (!outcome.stats.restored_snapshot) {
        continue;  // the cold run pays snapshot capture; skip it
      }
      // Everything except the interpreted cipher itself.
      const auto& st = outcome.stats;
      const uint64_t cipher =
          st.guest_cycles > st.exit_cycles ? st.guest_cycles - st.exit_cycles : 0;
      overhead_us = vbase::CyclesToMicros(st.total_cycles - cipher);
      VB_CHECK(warm_exits == 0 || warm_exits == st.io_exits, "warm exit count varies");
      warm_exits = st.io_exits;
    }

    // Native C++ AES on this host (no AES-NI): wall time.
    vbase::WallTimer timer;
    constexpr int kNativeReps = 50;
    for (int i = 0; i < kNativeReps; ++i) {
      auto ct = vaes::EncryptCbc(key, iv, plaintext);
      VB_CHECK(!ct.empty(), "");
    }
    const double native_us = timer.ElapsedMicros() / kNativeReps;
    // AES-NI-class baseline: 16 GB/s.
    const double aesni_us = static_cast<double>(size) / 16e3;
    table.AddRow({vbase::HumanBytes(size), vbase::Fmt(overhead_us, 1),
                  vbase::Fmt(native_us, 1),
                  vbase::Fmt((native_us + overhead_us) / native_us, 1) + "x",
                  vbase::Fmt((aesni_us + overhead_us) / aesni_us, 1) + "x"});
  }
  table.Print();
  std::printf("\noverhead = shell + snapshot restore + input delivery + %llu VM exit(s) per\n"
              "warm invocation (measured); the AES-NI-class column is the paper's comparison\n"
              "point (hot, hardware cipher).\n",
              static_cast<unsigned long long>(warm_exits));
  return 0;
}
