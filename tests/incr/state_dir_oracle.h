// The state-directory oracle the incr and chaos tests share: whatever a save skips,
// the directory it leaves must hold exactly the files, byte for byte, that a full
// save of the same artifacts into an empty directory writes.

#ifndef TESTS_INCR_STATE_DIR_ORACLE_H_
#define TESTS_INCR_STATE_DIR_ORACLE_H_

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "src/incr/state_dir.h"
#include "src/support/read_file.h"

namespace pathalias {
namespace incr {

// Every regular file under `dir`: path relative to `dir` → bytes.
inline std::map<std::string, std::string> StateDirFiles(const std::filesystem::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      files[std::filesystem::relative(entry.path(), dir).string()] =
          support::ReadWholeFile(entry.path().string()).value_or("<unreadable>");
    }
  }
  return files;
}

// Saves `artifacts` into `dir`, emptied first, with every payload digest forgotten
// (so every payload is serialized, digested and written), and returns the files.
inline std::map<std::string, std::string> FullSaveFiles(const std::filesystem::path& dir,
                                                        const StateDirHeader& header,
                                                        const std::vector<FileArtifact>& artifacts) {
  std::filesystem::remove_all(dir);
  StateDirContents contents;
  static_cast<StateDirHeader&>(contents) = header;
  contents.artifacts = artifacts;
  for (FileArtifact& artifact : contents.artifacts) {
    artifact.payload_digest.reset();
  }
  if (!SaveStateDir(dir.string(), contents)) {
    return {{"<full save failed>", dir.string()}};
  }
  return StateDirFiles(dir);
}

}  // namespace incr
}  // namespace pathalias

#endif  // TESTS_INCR_STATE_DIR_ORACLE_H_
