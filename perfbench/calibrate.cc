// perfbench_calibrate: a fixed reference job that measures how fast the host
// is right now. It links nothing from the repository, so no change to klink
// can change its work. run.py runs it after every timed repeat and scales
// the wall-clock metrics by its median time (perfbench/README.md, "Host
// speed").
//
// The job mixes what the Klink workloads spend their time on: hash-map
// inserts and lookups over a table larger than the caches, a sort, a
// dependent-load chain through 32 MiB, bulk memory writes and copies, and
// integer arithmetic. On a 4-vCPU Xeon it takes about 0.3 s.
//
// Prints one line: "CAL <seconds> <checksum>". The checksum is the same on
// every run; run.py checks it.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <vector>

namespace {

uint64_t state = 88172645463325252ull;

uint64_t Next() {  // xorshift64
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

uint64_t HashMap() {
  std::unordered_map<uint64_t, uint64_t> map;
  for (uint64_t i = 0; i < 150000; ++i) map[Next() % 4000000] += i;
  uint64_t sum = 0;
  for (int i = 0; i < 300000; ++i) {
    auto it = map.find(Next() % 4000000);
    if (it != map.end()) sum += it->second;
  }
  return sum + map.size();
}

uint64_t Sort() {
  std::vector<uint64_t> v(400000);
  for (auto& e : v) e = Next();
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

uint64_t Chase() {
  // next[i] = (a * i + c) mod 2^23 is one full cycle (a = 1 mod 4, c odd),
  // and the hardware prefetcher cannot follow it.
  constexpr uint32_t kMask = (1u << 23) - 1;
  std::vector<uint32_t> next(kMask + 1);
  for (uint32_t i = 0; i <= kMask; ++i) {
    next[i] = (2654435761u * i + 12345u) & kMask;
  }
  uint32_t p = 0;
  for (int i = 0; i < 200000; ++i) p = next[p];
  return p;
}

uint64_t Bandwidth() {
  constexpr size_t kBytes = 32u << 20;
  std::vector<char> a(kBytes), b(kBytes);
  std::memset(a.data(), 7, kBytes);
  std::memcpy(b.data(), a.data(), kBytes);
  return static_cast<uint64_t>(b[kBytes / 3]);
}

uint64_t Arithmetic() {
  uint64_t h = 1;
  for (int i = 0; i < 12500000; ++i) {
    h = h * 6364136223846793005ull + (h >> 29);
  }
  return h;
}

}  // namespace

int main() {
  const auto start = std::chrono::steady_clock::now();
  uint64_t checksum = HashMap();
  checksum = checksum * 31 + Sort();
  checksum = checksum * 31 + Chase();
  checksum = checksum * 31 + Bandwidth();
  checksum = checksum * 31 + Arithmetic();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::printf("CAL %.6f %llu\n", seconds,
              static_cast<unsigned long long>(checksum));
  return 0;
}
