// Managed-language UDFs in virtines (the Section 6.5 / Figure 15 scenario):
// register a JavaScript (microjs) function with the Vespid serverless
// platform and invoke it; every invocation runs the script engine inside an
// isolated VM permitted only snapshot, get_data and return_data, which the
// engine folds so a warm call takes one VM entry and one exit.
#include <cstdio>
#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/vjs/vjs.h"
#include "src/vnet/serverless.h"
#include "src/wasp/runtime.h"

int main() {
  wasp::Runtime runtime;
  vnet::Vespid platform(&runtime);

  auto status = platform.Register("b64", vjs::Base64ScriptSource());
  if (!status.ok()) {
    std::fprintf(stderr, "register failed: %s\n", status.ToString().c_str());
    return 1;
  }

  const std::string message = "serverless functions, isolated at the hardware limit";
  const std::vector<uint8_t> payload(message.begin(), message.end());
  const std::string expect = vjs::HostBase64(payload);

  for (int i = 0; i < 3; ++i) {
    auto result = platform.Invoke("b64", payload);
    if (!result.ok()) {
      std::fprintf(stderr, "invoke failed: %s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("invocation %d (%s): %7.1f us modeled, wall %7.1f us\n", i + 1,
                result->cold ? "cold, took snapshot" : "warm, snapshot restore",
                vbase::CyclesToMicros(result->modeled_cycles),
                static_cast<double>(result->wall_ns) / 1e3);
    const std::string output(result->output.begin(), result->output.end());
    if (i == 0) {
      std::printf("  output: %s\n", output.c_str());
      std::printf("  expect: %s\n", expect.c_str());
    }
    if (output != expect) {
      std::fprintf(stderr, "invocation %d returned a wrong output: %s\n", i + 1, output.c_str());
      return 1;
    }
  }
  return 0;
}
