#include "src/support/read_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>

#include "src/support/failpoint.h"
#include "src/support/io_retry.h"

namespace pathalias {
namespace support {

std::optional<std::string> ReadWholeFd(int fd) {
  struct stat st;
  size_t size = ::fstat(fd, &st) == 0 && st.st_size > 0 ? static_cast<size_t>(st.st_size) : 0;
  // One byte of headroom: a file read at its stat size ends with a zero-length
  // read, not a reallocation.
  std::string bytes(size + 1, '\0');
  size_t used = 0;
  for (;;) {
    ssize_t n = ReadFull(fd, bytes.data() + used, bytes.size() - used);
    if (n < 0) {
      return std::nullopt;
    }
    used += static_cast<size_t>(n);
    if (used < bytes.size()) {
      break;  // ReadFull stops short only at EOF
    }
    bytes.resize(bytes.size() + std::max<size_t>(bytes.size(), 64 * 1024));  // no size, or grew
  }
  bytes.resize(used);
  return bytes;
}

std::optional<std::string> ReadWholeFile(const std::string& path) {
  if (failpoint::Inject("file.read")) {
    return std::nullopt;
  }
  int fd = RetryEintr([&] { return ::open(path.c_str(), O_RDONLY | O_CLOEXEC); });
  if (fd < 0) {
    return std::nullopt;
  }
  std::optional<std::string> bytes = ReadWholeFd(fd);
  int saved = errno;
  ::close(fd);
  errno = saved;
  return bytes;
}

}  // namespace support
}  // namespace pathalias
