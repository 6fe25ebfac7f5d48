#include "sweep/fragment_store.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iterator>
#include <ostream>
#include <sstream>

#include "core/crc32.hpp"
#include "sim/assert.hpp"
#include "sweep/work_unit.hpp"

namespace dtncache::sweep {
namespace {

using core::crc32;
using core::putU32;
using core::putU64;
using core::readU32;
using core::readU64;

// 'DTNG' little-endian: fraGment. Distinct from the peer wire magic so a
// misdirected file is rejected at the first header check.
constexpr std::uint32_t kFragmentMagic = 0x474E5444u;
constexpr std::uint8_t kFragmentVersion = 1;
// magic u32 | version u8 | pad u8 u16 | jobIndex u64 | sweepFp u64 |
// configFp u64 | bodyLen u32 | bodyCrc u32
constexpr std::size_t kHeaderBytes = 4 + 1 + 1 + 2 + 8 + 8 + 8 + 4 + 4;
// Fragments hold a few rendered text lines plus an optional trace slice;
// anything bigger than this is corruption, not data.
constexpr std::size_t kMaxBodyBytes = 256u << 20;

void putSection(std::vector<std::uint8_t>& out, const std::string& text) {
  putU32(out, static_cast<std::uint32_t>(text.size()));
  out.insert(out.end(), text.begin(), text.end());
}

bool readSection(const std::uint8_t* body, std::size_t size, std::size_t& offset,
                 std::string* out) {
  if (size - offset < 4) return false;
  const std::uint32_t len = readU32(body + offset);
  offset += 4;
  if (size - offset < len) return false;
  out->assign(reinterpret_cast<const char*>(body + offset), len);
  offset += len;
  return true;
}

bool writeAll(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// Write bytes to `path` atomically: a same-directory temp file (unique per
/// pid) fsync'd and renamed into place. rename(2) makes racing writers of
/// identical content idempotent — last rename wins, same bytes either way.
void atomicWrite(const std::string& path, const std::uint8_t* data, std::size_t size) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  DTNCACHE_CHECK_MSG(fd >= 0, "cannot create " << tmp << ": " << std::strerror(errno));
  const bool ok = writeAll(fd, data, size) && ::fsync(fd) == 0;
  ::close(fd);
  if (!ok || ::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    DTNCACHE_CHECK_MSG(false, "cannot write " << path << ": " << std::strerror(errno));
  }
}

void ensureDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) return;
  DTNCACHE_CHECK_MSG(false, "cannot create directory " << path << ": "
                                                       << std::strerror(errno));
}

}  // namespace

std::vector<std::uint8_t> encodeFragment(const Fragment& fragment) {
  std::vector<std::uint8_t> body;
  body.reserve(16 + fragment.jsonl.size() + fragment.csvHeader.size() +
               fragment.csvRow.size() + fragment.trace.size());
  putSection(body, fragment.jsonl);
  putSection(body, fragment.csvHeader);
  putSection(body, fragment.csvRow);
  putSection(body, fragment.trace);

  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + body.size());
  putU32(out, kFragmentMagic);
  out.push_back(kFragmentVersion);
  out.push_back(0);
  out.push_back(0);
  out.push_back(0);
  putU64(out, fragment.jobIndex);
  putU64(out, fragment.sweepFp);
  putU64(out, fragment.configFp);
  putU32(out, static_cast<std::uint32_t>(body.size()));
  putU32(out, crc32(body.data(), body.size()));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

bool decodeFragment(const std::uint8_t* data, std::size_t size, Fragment* out) {
  if (size < kHeaderBytes) return false;
  if (readU32(data) != kFragmentMagic) return false;
  if (data[4] != kFragmentVersion) return false;
  const std::uint64_t jobIndex = readU64(data + 8);
  const std::uint64_t sweepFp = readU64(data + 16);
  const std::uint64_t configFp = readU64(data + 24);
  const std::uint32_t bodyLen = readU32(data + 32);
  const std::uint32_t bodyCrc = readU32(data + 36);
  if (bodyLen > kMaxBodyBytes) return false;
  if (size != kHeaderBytes + bodyLen) return false;  // torn or padded
  const std::uint8_t* body = data + kHeaderBytes;
  if (crc32(body, bodyLen) != bodyCrc) return false;  // bit flip / torn tail

  Fragment decoded;
  decoded.jobIndex = jobIndex;
  decoded.sweepFp = sweepFp;
  decoded.configFp = configFp;
  std::size_t offset = 0;
  if (!readSection(body, bodyLen, offset, &decoded.jsonl)) return false;
  if (!readSection(body, bodyLen, offset, &decoded.csvHeader)) return false;
  if (!readSection(body, bodyLen, offset, &decoded.csvRow)) return false;
  if (!readSection(body, bodyLen, offset, &decoded.trace)) return false;
  if (offset != bodyLen) return false;  // trailing junk
  *out = std::move(decoded);
  return true;
}

FragmentStore::FragmentStore(std::string dir) : dir_(std::move(dir)) {
  DTNCACHE_CHECK_MSG(!dir_.empty(), "fragment store needs a directory");
  ensureDir(dir_);
  ensureDir(fragDir());
}

void FragmentStore::writeFile(const std::string& name, const std::string& text) const {
  atomicWrite(dir_ + "/" + name, reinterpret_cast<const std::uint8_t*>(text.data()),
              text.size());
}

std::optional<std::string> FragmentStore::readFile(const std::string& name) const {
  std::ifstream in(dir_ + "/" + name, std::ios::binary);
  if (!in.good()) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string FragmentStore::put(const Fragment& fragment) const {
  const auto bytes = encodeFragment(fragment);
  // Content-addressed name: index for ordering + the body CRC already in
  // the header, so identical results collide onto one file name.
  const std::uint32_t bodyCrc = readU32(bytes.data() + 36);
  char name[64];
  std::snprintf(name, sizeof name, "job-%010llu-%08x.frag",
                static_cast<unsigned long long>(fragment.jobIndex), bodyCrc);
  const std::string path = fragDir() + "/" + name;
  atomicWrite(path, bytes.data(), bytes.size());
  return path;
}

bool FragmentStore::putBytes(const std::vector<std::uint8_t>& bytes,
                             std::uint64_t sweepFp, Fragment* decoded) const {
  Fragment fragment;
  if (!decodeFragment(bytes.data(), bytes.size(), &fragment)) return false;
  if (fragment.sweepFp != sweepFp) return false;
  put(fragment);
  if (decoded != nullptr) *decoded = std::move(fragment);
  return true;
}

FragmentStore::ScanResult FragmentStore::scan(std::uint64_t sweepFp,
                                              bool dropInvalid) const {
  ScanResult result;
  DIR* d = ::opendir(fragDir().c_str());
  if (d == nullptr) return result;
  std::vector<std::string> names;
  while (dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.size() > 5 && name.compare(name.size() - 5, 5, ".frag") == 0)
      names.push_back(name);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());  // deterministic duplicate choice
  for (const auto& name : names) {
    const std::string path = fragDir() + "/" + name;
    const auto fragment = read(path);
    if (fragment.has_value() && fragment->sweepFp == sweepFp) {
      result.valid.emplace(fragment->jobIndex, path);  // first path wins
    } else {
      ++result.invalid;
      if (dropInvalid) ::unlink(path.c_str());
    }
  }
  return result;
}

std::optional<Fragment> FragmentStore::read(const std::string& path) const {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return std::nullopt;
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  Fragment fragment;
  if (!decodeFragment(bytes.data(), bytes.size(), &fragment)) return std::nullopt;
  return fragment;
}

bool FragmentStore::hasFragment(std::uint64_t index) const {
  char prefix[32];
  std::snprintf(prefix, sizeof prefix, "job-%010llu-",
                static_cast<unsigned long long>(index));
  DIR* d = ::opendir(fragDir().c_str());
  if (d == nullptr) return false;
  bool found = false;
  while (dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.rfind(prefix, 0) == 0 && name.size() > 5 &&
        name.compare(name.size() - 5, 5, ".frag") == 0) {
      found = true;
      break;
    }
  }
  ::closedir(d);
  return found;
}

std::string FragmentStore::leasePath(std::uint64_t index) const {
  return dir_ + "/lease-" + std::to_string(index);
}

bool FragmentStore::tryLease(std::uint64_t index) const {
  const std::string path = leasePath(index);
  const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) {
    // Anything but "already held" (a read-only or vanished store) would
    // otherwise look like a lease lost forever and hang the worker.
    DTNCACHE_CHECK_MSG(errno == EEXIST,
                       "cannot create " << path << ": " << std::strerror(errno));
    return false;
  }
  ::close(fd);
  return true;
}

std::optional<double> FragmentStore::leaseAge(std::uint64_t index) const {
  struct stat st{};
  if (::stat(leasePath(index).c_str(), &st) != 0) return std::nullopt;
  // Nanosecond fields on both sides: whole-second mtimes would make a lease
  // taken a moment ago read as up to 1 s old.
  struct timespec now{};
  ::clock_gettime(CLOCK_REALTIME, &now);
  const double age =
      static_cast<double>(now.tv_sec - st.st_mtim.tv_sec) +
      1e-9 * static_cast<double>(now.tv_nsec - st.st_mtim.tv_nsec);
  return std::max(0.0, age);
}

void FragmentStore::releaseLease(std::uint64_t index) const {
  ::unlink(leasePath(index).c_str());
}

void mergeFragments(const FragmentStore& store, std::uint64_t sweepFp,
                    const std::vector<WorkUnit>& units, std::ostream* jsonl,
                    std::ostream* csv, std::ostream* trace) {
  const auto scanned = store.scan(sweepFp, /*dropInvalid=*/false);
  std::ostringstream missing;
  std::size_t missingCount = 0;
  for (const auto& unit : units) {
    if (scanned.valid.count(unit.index) != 0) continue;
    if (++missingCount <= 8) missing << ' ' << unit.index;
  }
  DTNCACHE_CHECK_MSG(missingCount == 0,
                     "merge: " << missingCount << " of " << units.size()
                               << " work units have no valid fragment (indices:"
                               << missing.str()
                               << (missingCount > 8 ? " ..." : "") << ")");

  std::string csvHeader;
  for (const auto& unit : units) {
    const auto fragment = store.read(scanned.valid.at(unit.index));
    DTNCACHE_CHECK_MSG(fragment.has_value(),
                       "merge: fragment for job " << unit.index
                                                  << " vanished mid-merge");
    DTNCACHE_CHECK_MSG(fragment->configFp == unit.configFp,
                       "merge: fragment for job "
                           << unit.index
                           << " was produced by a different config (grid skew)");
    if (jsonl != nullptr) *jsonl << fragment->jsonl;
    if (csv != nullptr) {
      if (csvHeader.empty()) {
        csvHeader = fragment->csvHeader;
        *csv << csvHeader;
      } else {
        DTNCACHE_CHECK_MSG(fragment->csvHeader == csvHeader,
                           "merge: job " << unit.index
                                         << " rendered a different CSV header");
      }
    }
    if (csv != nullptr) *csv << fragment->csvRow;
    if (trace != nullptr) *trace << fragment->trace;
  }
  if (jsonl != nullptr) jsonl->flush();
  if (csv != nullptr) csv->flush();
  if (trace != nullptr) trace->flush();
}

}  // namespace dtncache::sweep
