#include "src/incr/state_dir.h"

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "src/support/digest.h"
#include "src/support/durable_file.h"
#include "src/support/failpoint.h"
#include "src/support/read_file.h"

namespace pathalias {
namespace incr {
namespace {

namespace fs = std::filesystem;

// v1: local / ignore_case / files.  v2 added a generation line (the image publish
// generation) between ignore_case and files.  v3 changed every digest in the
// directory — input digests and payload names — from FNV-1a to XXH64, so older
// manifests are refused rather than read.
constexpr int kManifestVersion = 3;

// Slot index + digest of the serialized bytes: content-addressed, so a re-save
// never overwrites a payload an older manifest still references (unless the bytes
// are identical, in which case overwriting is a no-op).
std::string ArtifactFileName(size_t index, uint64_t bytes_digest) {
  char name[48];
  std::snprintf(name, sizeof(name), "%04zu-%016llx.pai", index,
                static_cast<unsigned long long>(bytes_digest));
  return name;
}

// Durable temp + fsync + rename + parent-dir fsync: a crash mid-save leaves the
// previous version intact, and a completed save survives power loss.
bool WriteFileAtomically(const fs::path& path, std::string_view bytes) {
  std::string error;
  return support::PublishFileDurably(path.string(), bytes, "state.publish", &error);
}

std::optional<std::string> ReadStateFile(const fs::path& path) {
  if (support::failpoint::Inject("state.read")) {
    return std::nullopt;
  }
  return support::ReadWholeFile(path.string());
}

// The save both public forms share.  `payload_digests` receives each artifact's
// payload digest, in artifact order.
bool Save(const std::string& dir, const StateDirHeader& header,
          std::span<const FileArtifact> artifacts, std::vector<uint64_t>* payload_digests) {
  const fs::path payload_dir = fs::path(dir) / "artifacts";
  std::error_code ec;
  fs::create_directories(payload_dir, ec);
  if (ec) {
    return false;
  }
  // One listing answers "is this payload already on disk?" for every artifact, and
  // later names the payloads to prune.  Listing fresh on every save is what keeps a
  // remembered digest from vouching for a file someone deleted.
  std::unordered_set<std::string> on_disk;
  for (const fs::directory_entry& entry : fs::directory_iterator(payload_dir, ec)) {
    std::string name = entry.path().filename().string();
    if (name.ends_with(".pai")) {
      on_disk.insert(std::move(name));
    }
  }
  // Payloads are content-addressed and written via temp+rename, so a save torn at
  // ANY point leaves the previous manifest's payload set intact and readable; the
  // manifest rename below is the single commit point.
  std::unordered_set<std::string> referenced;
  std::string manifest;
  manifest += "pathalias-state " + std::to_string(kManifestVersion) + "\n";
  manifest += "local\t" + header.local + "\n";
  manifest += "ignore_case\t" + std::string(header.ignore_case ? "1" : "0") + "\n";
  manifest += "generation\t" + std::to_string(header.image_generation) + "\n";
  manifest += "files\t" + std::to_string(artifacts.size()) + "\n";
  payload_digests->clear();
  payload_digests->reserve(artifacts.size());
  for (size_t i = 0; i < artifacts.size(); ++i) {
    const FileArtifact& artifact = artifacts[i];
    std::optional<uint64_t> digest = artifact.payload_digest;
    std::string file_name = digest.has_value() ? ArtifactFileName(i, *digest) : std::string();
    if (!digest.has_value() || !on_disk.contains(file_name)) {
      std::string bytes = SerializeArtifact(artifact);
      digest = support::Digest(bytes);
      file_name = ArtifactFileName(i, *digest);
      if (!on_disk.contains(file_name) &&
          !WriteFileAtomically(payload_dir / file_name, bytes)) {
        return false;
      }
    }
    payload_digests->push_back(*digest);
    manifest += std::to_string(artifact.digest) + "\t" + file_name + "\t" +
                artifact.file_name + "\n";
    referenced.insert(std::move(file_name));
  }
  if (!WriteFileAtomically(fs::path(dir) / "manifest", manifest)) {
    return false;
  }
  // Now that the new manifest is committed, drop payloads nothing references.
  // Best-effort: a leftover file is dead weight, never a correctness problem.
  for (const std::string& name : on_disk) {
    if (!referenced.contains(name)) {
      fs::remove(payload_dir / name, ec);
    }
  }
  return true;
}

}  // namespace

bool SaveStateDir(const std::string& dir, const StateDirContents& contents) {
  std::vector<uint64_t> payload_digests;
  return Save(dir, contents, contents.artifacts, &payload_digests);
}

bool SaveStateDir(const std::string& dir, const StateDirHeader& header,
                  std::span<FileArtifact> artifacts) {
  std::vector<uint64_t> payload_digests;
  if (!Save(dir, header, artifacts, &payload_digests)) {
    return false;
  }
  for (size_t i = 0; i < artifacts.size(); ++i) {
    artifacts[i].payload_digest = payload_digests[i];
  }
  return true;
}

std::optional<StateDirContents> LoadStateDir(const std::string& dir, std::string* error) {
  auto fail = [&](std::string message) -> std::optional<StateDirContents> {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return std::nullopt;
  };
  std::optional<std::string> manifest = ReadStateFile(fs::path(dir) / "manifest");
  if (!manifest.has_value()) {
    return fail("cannot read manifest");
  }
  std::istringstream in(*manifest);
  std::string word;
  int version = 0;
  if (!(in >> word >> version) || word != "pathalias-state" || version < 1) {
    return fail("unrecognized manifest header");
  }
  if (version < kManifestVersion) {
    return fail("manifest version " + std::to_string(version) +
                " predates this binary's version " + std::to_string(kManifestVersion) +
                " (its digests are no longer comparable); rebuild the state dir with "
                "`routedb update --init`");
  }
  if (version > kManifestVersion) {
    return fail("manifest version " + std::to_string(version) +
                " is newer than this binary understands — rebuild the state dir");
  }
  StateDirContents contents;
  std::string line;
  std::getline(in, line);  // finish the header line
  auto next_field = [&](std::string_view key, std::string* value) {
    if (!std::getline(in, line)) {
      return false;
    }
    size_t tab = line.find('\t');
    if (tab == std::string::npos || std::string_view(line).substr(0, tab) != key) {
      return false;
    }
    *value = line.substr(tab + 1);
    return true;
  };
  std::string field;
  if (!next_field("local", &contents.local)) {
    return fail("manifest missing local host");
  }
  if (!next_field("ignore_case", &field)) {
    return fail("manifest missing ignore_case");
  }
  contents.ignore_case = field == "1";
  if (!next_field("generation", &field)) {
    return fail("manifest missing generation");
  }
  try {
    contents.image_generation = std::stoull(field);
  } catch (...) {
    return fail("malformed generation");
  }
  if (!next_field("files", &field)) {
    return fail("manifest missing file count");
  }
  size_t count = 0;
  try {
    count = std::stoul(field);
  } catch (...) {
    return fail("malformed file count");
  }
  for (size_t i = 0; i < count; ++i) {
    if (!std::getline(in, line)) {
      return fail("manifest truncated");
    }
    size_t tab1 = line.find('\t');
    size_t tab2 = tab1 == std::string::npos ? std::string::npos : line.find('\t', tab1 + 1);
    if (tab2 == std::string::npos) {
      return fail("malformed manifest line");
    }
    uint64_t digest = 0;
    try {
      digest = std::stoull(line.substr(0, tab1));
    } catch (...) {
      return fail("malformed digest");
    }
    std::string artifact_file = line.substr(tab1 + 1, tab2 - tab1 - 1);
    std::string input_name = line.substr(tab2 + 1);
    std::optional<std::string> bytes = ReadStateFile(fs::path(dir) / "artifacts" / artifact_file);
    if (!bytes.has_value()) {
      return fail("cannot read artifact " + artifact_file);
    }
    // A payload is adopted under the content address its name claims, so the
    // name must be that address: the digest of the bytes actually read.
    const uint64_t payload_digest = support::Digest(*bytes);
    if (artifact_file != ArtifactFileName(i, payload_digest)) {
      return fail("artifact " + artifact_file + " does not match its name's digest");
    }
    std::optional<FileArtifact> artifact = DeserializeArtifact(*bytes);
    if (!artifact.has_value() || artifact->digest != digest ||
        artifact->file_name != input_name) {
      return fail("artifact " + artifact_file + " does not match its manifest entry");
    }
    artifact->payload_digest = payload_digest;
    contents.artifacts.push_back(std::move(*artifact));
  }
  return contents;
}

}  // namespace incr
}  // namespace pathalias
