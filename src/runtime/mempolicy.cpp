#include "runtime/mempolicy.hpp"

#include <new>

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>

#include <cstdint>
#include <vector>
#endif

namespace sjoin {

void* AllocatePages(std::size_t bytes) {
  return ::operator new(bytes, std::align_val_t{kMemPageSize});
}

void FreePages(void* addr, std::size_t bytes) {
  (void)bytes;
  ::operator delete(addr, std::align_val_t{kMemPageSize});
}

Slab AllocateSlab(std::size_t bytes) {
  Slab slab;
  if (bytes == 0) return slab;
  slab.bytes = RoundUpToPage(bytes);
  slab.addr = AllocatePages(slab.bytes);
  return slab;
}

void FreeSlab(Slab* slab) {
  if (slab == nullptr || slab->addr == nullptr) return;
  FreePages(slab->addr, slab->bytes);
  *slab = Slab{};
}

#if defined(__linux__) && defined(SYS_mbind)

namespace {

// From <linux/mempolicy.h> (stable kernel ABI); redeclared locally so the
// build does not depend on kernel uapi headers being installed.
constexpr int kMpolPreferred = 1;
constexpr int kMpolMfMove = 1 << 1;  // MPOL_MF_MOVE

constexpr unsigned kMaxNodes = 1024;
constexpr unsigned kBitsPerWord = 8 * sizeof(unsigned long);

}  // namespace

bool BindMemoryToNode(void* addr, std::size_t len, int node) {
  if (addr == nullptr || len == 0 || node < 0 ||
      static_cast<unsigned>(node) >= kMaxNodes) {
    return false;
  }
  unsigned long mask[kMaxNodes / kBitsPerWord] = {};
  mask[static_cast<unsigned>(node) / kBitsPerWord] |=
      1UL << (static_cast<unsigned>(node) % kBitsPerWord);
  // maxnode counts bits and must exceed the highest set bit.
  const long rc = ::syscall(SYS_mbind, addr, len, kMpolPreferred, mask,
                            static_cast<unsigned long>(kMaxNodes + 1), 0u);
  return rc == 0;
}

bool MoveMemoryToNode(void* addr, std::size_t len, int node) {
#if defined(SYS_move_pages)
  if (addr == nullptr || len == 0 || node < 0) return false;
  const std::size_t pages = RoundUpToPage(len) / kMemPageSize;
  std::vector<void*> page_addrs(pages);
  std::vector<int> nodes(pages, node);
  std::vector<int> status(pages, -1);
  auto* base = static_cast<unsigned char*>(addr);
  for (std::size_t i = 0; i < pages; ++i) {
    page_addrs[i] = base + i * kMemPageSize;
  }
  const long rc =
      ::syscall(SYS_move_pages, 0 /* self */, static_cast<unsigned long>(pages),
                page_addrs.data(), nodes.data(), status.data(), kMpolMfMove);
  if (rc != 0) return false;
  // Per-page status: the target node on success, -errno otherwise. A page
  // that was never touched reports -ENOENT and is left for first-touch.
  for (std::size_t i = 0; i < pages; ++i) {
    if (status[i] == node) return true;
  }
  return false;
#else
  (void)addr;
  (void)len;
  (void)node;
  return false;
#endif
}

int CurrentNumaNode() {
#if defined(SYS_getcpu)
  unsigned cpu = 0;
  unsigned node = 0;
  if (::syscall(SYS_getcpu, &cpu, &node, nullptr) != 0) return -1;
  return static_cast<int>(node);
#else
  return -1;
#endif
}

bool MemPolicySupported() { return true; }

#else  // non-Linux or syscall numbers unavailable

bool BindMemoryToNode(void* addr, std::size_t len, int node) {
  (void)addr;
  (void)len;
  (void)node;
  return false;
}

bool MoveMemoryToNode(void* addr, std::size_t len, int node) {
  (void)addr;
  (void)len;
  (void)node;
  return false;
}

int CurrentNumaNode() { return -1; }

bool MemPolicySupported() { return false; }

#endif

}  // namespace sjoin
