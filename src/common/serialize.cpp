#include "common/serialize.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace orco::common {

namespace {

/// Writes all of `bytes` to `fd`, resuming after short writes and EINTR.
bool write_all(int fd, std::span<const std::byte> bytes) {
  const std::byte* p = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

/// fsyncs the directory holding `path`, making a rename within it durable.
bool sync_parent_dir(const std::string& path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool synced = ::fsync(fd) == 0;
  return ::close(fd) == 0 && synced;
}

}  // namespace

void write_file_atomic(const std::string& path,
                       std::span<const std::byte> bytes) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw std::runtime_error("cannot open for write: " + tmp);
  // The data must be on disk before the rename publishes it: otherwise a
  // crash can leave `path` naming an empty or partial file.
  const bool written = write_all(fd, bytes) && ::fsync(fd) == 0;
  if (::close(fd) != 0 || !written) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot write and sync " + tmp);
  }
  // POSIX rename atomically replaces `path`; a crash before this line
  // leaves only the temp file behind and the previous `path` intact.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot rename " + tmp + " over " + path);
  }
  if (!sync_parent_dir(path)) {
    throw std::runtime_error("cannot sync the directory of " + path);
  }
}

std::vector<std::byte> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) throw std::runtime_error("short read: " + path);
  return bytes;
}

}  // namespace orco::common
