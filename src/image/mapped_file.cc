#include "src/image/mapped_file.h"

#include <cstdio>
#include <utility>

#include "src/support/failpoint.h"

#if defined(__unix__) || defined(__APPLE__)
#define PATHALIAS_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace pathalias {
namespace image {
namespace {

bool ReadWholeFile(const std::string& path, std::string* out) {
  if (support::failpoint::Inject("image.read")) {
    return false;
  }
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    return false;
  }
  char chunk[1 << 16];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), in)) > 0) {
    out->append(chunk, n);
  }
  bool ok = std::ferror(in) == 0;
  std::fclose(in);
  return ok;
}

}  // namespace

std::optional<MappedFile> MappedFile::Open(const std::string& path, bool readahead) {
  MappedFile file;
  if (support::failpoint::Inject("image.open")) {
    return std::nullopt;
  }
#ifdef PATHALIAS_HAVE_MMAP
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct stat st;
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
      // An armed "image.mmap" exercises the degraded path below: mmap failure
      // falls back to reading the whole file, never to a failed open.
      void* mapped = support::failpoint::Inject("image.mmap")
                         ? MAP_FAILED
                         : ::mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ,
                                  MAP_PRIVATE, fd, 0);
      if (mapped != MAP_FAILED) {
        file.mapped_ = static_cast<char*>(mapped);
        file.size_ = static_cast<size_t>(st.st_size);
        if (readahead) {
          // Advisory only: an unsupported advice value must not fail the open.
          (void)::madvise(file.mapped_, file.size_, MADV_WILLNEED);
        }
      }
    }
    ::close(fd);
    if (file.mapped_ != nullptr) {
      return file;
    }
  }
#else
  (void)readahead;  // the eager-read fallback is its own readahead
#endif
  if (!ReadWholeFile(path, &file.buffer_)) {
    return std::nullopt;
  }
  return file;
}

MappedFile MappedFile::FromBuffer(std::string bytes) {
  MappedFile file;
  file.buffer_ = std::move(bytes);
  return file;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
#ifdef PATHALIAS_HAVE_MMAP
    if (mapped_ != nullptr) {
      ::munmap(mapped_, size_);
    }
#endif
    mapped_ = std::exchange(other.mapped_, nullptr);
    size_ = std::exchange(other.size_, 0);
    buffer_ = std::move(other.buffer_);
  }
  return *this;
}

MappedFile::~MappedFile() {
#ifdef PATHALIAS_HAVE_MMAP
  if (mapped_ != nullptr) {
    ::munmap(mapped_, size_);
  }
#endif
}

}  // namespace image
}  // namespace pathalias
