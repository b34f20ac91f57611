// StateDir: the on-disk form of a MapBuilder's retained artifacts.
//
// Layout (all files under one directory):
//   manifest                 text header: format version, local host, ignore_case,
//                            generation, then one line per input file — digest,
//                            payload file, input name
//   artifacts/NNNN-D.pai     serialized FileArtifact (src/incr/artifact.h) for slot
//                            NNNN, where D is the support::Digest (XXH64) of those bytes
//
// Payloads are content-addressed and the manifest is written last, each via durable
// temp-file + fsync + rename (see src/support/durable_file.h), so a crashed save
// leaves the previous state readable.  Input digests live in both the manifest and
// the payloads; Load verifies they agree, and that each payload's bytes digest to
// the name they are stored under, and rejects the directory wholesale on any
// mismatch (a state dir is a cache — the inputs can always rebuild it).
//
// What a save costs.  A save lists artifacts/ once.  An artifact whose
// payload_digest is known and whose payload name is in that listing is neither
// serialized nor digested: its manifest line is all the save writes for it.  Every
// other artifact is serialized and digested, and its payload is written unless a
// file of that name already exists.  So a save after a one-file edit serializes,
// digests and writes one payload, then the manifest; the bytes it leaves are the
// ones a save of the same artifacts into an empty directory writes.  Payloads the
// new manifest does not name are removed after it is committed.
//
// Manifest format version 3.  Version 2 added the `generation` line (the publish
// generation of the image this state accompanies); version 3 moved every digest
// from FNV-1a to XXH64.  Older and unrecognized future versions are both rejected
// with a clean rebuild-needed error (`routedb update --init`), never parsed on
// faith.
//
// Consumers: `pathalias --incremental <dir>` (skip lexing unchanged inputs across
// invocations), `routedb update <image> <changed-files...>` (which keeps the state
// beside the image at <image>.state) and routedbd's SIGHUP reload, all through
// MapBuilder::SaveState.

#ifndef SRC_INCR_STATE_DIR_H_
#define SRC_INCR_STATE_DIR_H_

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/incr/artifact.h"

namespace pathalias {
namespace incr {

// The manifest's header fields: everything a state directory records besides the
// artifacts.
struct StateDirHeader {
  // pathalint: allow(R1): manifest serialization record — bytes round-tripped
  // through the on-disk state dir, read back before any interner is rebuilt.
  std::string local;        // the effective local host the state was built with
  bool ignore_case = false;
  // Publish generation of the .pari image this state was saved alongside
  // (ImageHeader::generation).  0 = unstamped: a state dir that does not
  // accompany an image (`pathalias --incremental`).  Consumers that pair a state dir with an
  // image (RolloverController, routedb update) compare the two stamps and
  // treat a mismatch as a torn update — rebuild, never mix-and-match.
  uint64_t image_generation = 0;
};

struct StateDirContents : StateDirHeader {
  std::vector<FileArtifact> artifacts;
};

// Writes `contents` under `dir` (created if missing).  False on any I/O failure.
// Serializes and digests only the artifacts the header comment says it must.
bool SaveStateDir(const std::string& dir, const StateDirContents& contents);

// The same save, over artifacts the caller keeps (MapBuilder::SaveState: no copy).
// On success it sets every artifact's payload_digest, so the next save skips them;
// on failure it sets none (a failure before the manifest's rename also leaves the
// previous manifest, and every payload it names, in place).
bool SaveStateDir(const std::string& dir, const StateDirHeader& header,
                  std::span<FileArtifact> artifacts);

// Reads a state directory back.  nullopt (with *error set) on missing/corrupt
// manifest, unreadable artifacts, or digest disagreement.  Each payload's bytes are
// digested and must match the name its manifest line gives; that digest becomes
// the artifact's payload_digest.
std::optional<StateDirContents> LoadStateDir(const std::string& dir, std::string* error);

}  // namespace incr
}  // namespace pathalias

#endif  // SRC_INCR_STATE_DIR_H_
