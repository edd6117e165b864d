// CRC32C (Castagnoli, polynomial 0x1EDC6F41) — the repo's one checksum for
// durable bytes: WAL record framing, checkpoint files, and GraphStore
// object files all use it. Chosen over a hash such as FNV-1a because it is
// a real error-detecting code: every 1- and 2-bit error and every burst up
// to 32 bits is caught, which is exactly the torn-write / bit-rot class the
// fault-injection harness exercises.
//
// Software slicing-by-4 implementation; no hardware dependency, so the
// same bytes verify on every platform.

#ifndef EXPFINDER_UTIL_CRC32C_H_
#define EXPFINDER_UTIL_CRC32C_H_

#include <cstdint>
#include <string_view>

namespace expfinder {

/// CRC32C of `data`, with the conventional init/final xor (i.e. the value
/// matches the RFC 3720 test vectors: Crc32c("123456789") == 0xE3069283).
uint32_t Crc32c(std::string_view data);

/// Incremental form: extends `crc` (a value previously returned by Crc32c
/// or Crc32cExtend) over `data`. Crc32cExtend(Crc32c(a), b) == Crc32c(a+b).
uint32_t Crc32cExtend(uint32_t crc, std::string_view data);

}  // namespace expfinder

#endif  // EXPFINDER_UTIL_CRC32C_H_
