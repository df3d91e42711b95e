// Shared content-addressed store of memoized job-result documents.
//
// One file per result, named by the job's 64-bit FNV-1a content hash, so
// every process in a serving fleet -- N workers plus their respawned
// replacements -- reads and writes the same store: a 0.1 ms memoized hit
// survives the death of the worker that computed it.  The format reuses the
// snapshot layer's conventions:
//
//   [ 8 bytes magic "DOSERES1" ][ u32 version ][ u64 payload size ]
//   [ u64 FNV-1a checksum of payload ][ payload bytes (result JSON) ]
//
// Writes are crash-safe (unique temp file, fsync, rename over the final
// name, directory fsync) and therefore also race-safe: two workers solving
// the same job concurrently publish bit-identical bytes and the second
// rename is a no-op overwrite.  Reads validate magic, version, size, and
// checksum before returning a byte of payload; corruption throws
// doseopt::Error so the caller can quarantine the file and fall back to a
// recompute (deterministic, hence bit-identical).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace doseopt::serde {

/// Current result-record format version.  Version 2: leakage-mode
/// results keep their timing bound (version-1 records may break it), so
/// older records are set aside and re-solved.
inline constexpr std::uint32_t kResultStoreVersion = 2;

/// Path of the record for `key` inside `dir` ("<dir>/<key-hex>.res").
std::string result_path(const std::string& dir, std::uint64_t key);

/// Publish `payload` as the record for `key` (atomic tmp+rename, fsynced).
/// Creates `dir` if missing.  Throws doseopt::Error on I/O failure.
void write_result(const std::string& dir, std::uint64_t key,
                  std::string_view payload);

/// Fetch the record for `key`.  Returns nullopt when no record exists;
/// throws doseopt::Error on a corrupt record (bad magic/version/size/
/// checksum/trailing bytes) or an injected fleet.cache_corrupt fault --
/// callers quarantine and treat the key as a miss.
std::optional<std::string> read_result(const std::string& dir,
                                       std::uint64_t key);

/// Move a (corrupt) record aside to "<file>.corrupt" for post-mortem;
/// falls back to deletion when the rename fails.  Never throws.
void quarantine_result(const std::string& dir, std::uint64_t key);

/// Delete orphaned "<name>.tmp.<pid>[.<seq>]" files left in `dir` by a
/// process that crashed between write and rename.  Only files whose
/// embedded pid is provably dead (and not our own) are removed -- a live
/// writer's in-flight temp file is never touched.  Returns the number of
/// files reclaimed; never throws, no-op on a missing directory.
int reclaim_stale_tmp_files(const std::string& dir);

}  // namespace doseopt::serde
