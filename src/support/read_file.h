// Whole-file reads for map files, route text and state-directory payloads.
//
// One open, one fstat to size the buffer, and one read that fills it (a second
// read confirms EOF).  Descriptors that report no size (pipes, a terminal) are
// read in growing chunks until EOF instead.

#ifndef SRC_SUPPORT_READ_FILE_H_
#define SRC_SUPPORT_READ_FILE_H_

#include <optional>
#include <string>

namespace pathalias {
namespace support {

// The file's bytes, or nullopt (errno set) if it cannot be opened or read.  The
// "file.read" failpoint fails it.
std::optional<std::string> ReadWholeFile(const std::string& path);

// The rest of an open descriptor's bytes (a tool's "-" operand reads fd 0), or
// nullopt (errno set) on a read error.  Does not close `fd`.
std::optional<std::string> ReadWholeFd(int fd);

}  // namespace support
}  // namespace pathalias

#endif  // SRC_SUPPORT_READ_FILE_H_
