#include "src/vkvm/vkvm.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

namespace vkvm {

bool KvmHardwareAvailable() {
  const int fd = ::open("/dev/kvm", O_RDWR | O_CLOEXEC);
  if (fd < 0) {
    return false;
  }
  ::close(fd);
  return true;
}

Vm::Vm(const VmConfig& config)
    : config_(config), mem_(config.mem_size), cpu_(&mem_, config.guest_costs) {}

std::unique_ptr<Vm> Vm::Create(const VmConfig& config) {
  auto vm = std::unique_ptr<Vm>(new Vm(config));
  vm->host_cycles_ += config.host_costs.vm_create;
  return vm;
}

vbase::Status Vm::LoadBlob(uint64_t gpa, const void* data, uint64_t len) {
  return mem_.Write(gpa, data, len);
}

vhw::Exit Vm::Run(uint64_t max_insns) {
  host_cycles_ += config_.host_costs.vmrun;
  return cpu_.Run(max_insns);
}

vbase::Status Vm::ReadVirt(uint64_t va, void* dst, uint64_t len) {
  uint8_t* out = static_cast<uint8_t*>(dst);
  uint64_t done = 0;
  while (done < len) {
    const uint64_t page_off = (va + done) & (vhw::kPageSize - 1);
    const uint64_t chunk = std::min<uint64_t>(len - done, vhw::kPageSize - page_off);
    auto pa = cpu_.Translate(va + done);
    if (!pa.ok()) {
      return pa.status();
    }
    VB_RETURN_IF_ERROR(mem_.Read(*pa, out + done, chunk));
    done += chunk;
  }
  return vbase::Status::Ok();
}

vbase::Status Vm::WriteVirt(uint64_t va, const void* src, uint64_t len) {
  const uint8_t* in = static_cast<const uint8_t*>(src);
  uint64_t done = 0;
  while (done < len) {
    const uint64_t page_off = (va + done) & (vhw::kPageSize - 1);
    const uint64_t chunk = std::min<uint64_t>(len - done, vhw::kPageSize - page_off);
    auto pa = cpu_.Translate(va + done);
    if (!pa.ok()) {
      return pa.status();
    }
    VB_RETURN_IF_ERROR(mem_.Write(*pa, in + done, chunk));
    done += chunk;
  }
  return vbase::Status::Ok();
}

vbase::Result<std::string> Vm::ReadCString(uint64_t va, uint64_t max_len) {
  std::string out;
  for (uint64_t i = 0; i < max_len; ++i) {
    char c;
    VB_RETURN_IF_ERROR(ReadVirt(va + i, &c, 1));
    if (c == '\0') {
      return out;
    }
    out += c;
  }
  return vbase::OutOfRange("unterminated guest string");
}

}  // namespace vkvm
