// RolloverController: zero-downtime route updates for a serving process.
//
// Owns the pieces a long-lived server needs to swap its mapping under live
// traffic: the current FrozenImage, the BatchEngine resolving against it,
// an optionally-resident incr::MapBuilder for in-process updates, and a retire
// list of old mappings waiting for in-flight batches to drain.
//
// Two update entry points, matching routedbd's two triggers:
//
//   ReloadFromSources() — the SIGHUP path.  Re-reads the configured map files and
//   runs the routedb-update flow in process: MapBuilder::Update (digest check
//   skips unchanged files; patch or replay as the edit allows), then
//   ImageWriter::Refreeze (temp + rename, so concurrent opens never see a torn
//   image), SaveStateDir, reopen the fresh image, and
//   engine->AdoptRoutes(fresh, builder.dirty_route_ids()).  The builder stays
//   resident, so repeated HUPs get the patch path's full advantage (no state-dir
//   reload, no replay of the previous state).
//
//   CheckImage() — the changed-file-notification path.  Detects that some OTHER
//   process replaced the image on disk (routedb update's rename), reopens it, and
//   computes the dirty-id set itself by diffing per-id route views old vs new
//   (frozen ids are append-only across Refreeze, so the common prefix of the two
//   interners must agree — verified, not assumed).  Compatible images hot-swap via
//   AdoptRoutes like the HUP path; an incompatible image (rebuilt from scratch
//   with a different id assignment) falls back to replacing the whole engine,
//   which flushes the caches — correct, just colder.
//
// Either way the OLD image is not unmapped at swap time: it goes on the retire
// list with a mark taken from engine->batches_started(), and RetireDrained() —
// called from the serving loop whenever convenient — frees it only once
// engine->batches_completed() has reached the mark, i.e. once every batch that
// could have been reading the old bytes has returned.  AdoptRoutes re-homes the
// caches onto the fresh image, so after the drain nothing references the old
// mapping at all.
//
// Threading: all methods run on the serving thread, between batches (the
// AdoptRoutes contract).  The drain counters exist for engines whose batches are
// executed by pool threads — the mark/drain protocol is what makes the unmap safe
// without joining them.

#ifndef SRC_NET_ROLLOVER_H_
#define SRC_NET_ROLLOVER_H_

#include <sys/stat.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/exec/batch_engine.h"
#include "src/image/frozen_route_set.h"
#include "src/incr/map_builder.h"

namespace pathalias {
namespace net {

struct RolloverOptions {
  std::string image_path;              // the .pari image to serve and watch
  std::vector<std::string> map_files;  // sources for the SIGHUP reload path; empty
                                       //   disables ReloadFromSources
  exec::BatchEngineOptions engine;     // forwarded to the serving engine
};

enum class ReloadOutcome {
  kApplied,  // a fresh mapping is live; the old one is queued for retirement
  kNoop,     // nothing changed — same engine, same image, no work done
  kError,    // reload failed; the PREVIOUS mapping is still serving, untouched
};

class RolloverController {
 public:
  explicit RolloverController(RolloverOptions options) : options_(std::move(options)) {}

  // Opens the image and builds the serving engine.  False (with *error set) if the
  // image is missing or invalid.
  bool Start(std::string* error);

  // The serving engine.  The pointer is stable across rollovers (AdoptRoutes swaps
  // its internals) except after an incompatible CheckImage() swap, which replaces
  // the engine object — re-fetch after every reload, which costs nothing.
  exec::BatchEngine* engine() { return engine_.get(); }
  const FrozenRouteSet* routes() const { return &current_->routes(); }

  // SIGHUP: re-read options_.map_files and run the in-process update pipeline.
  // kNoop when every file's digest matches the retained state (no refreeze, no
  // swap — image mtime untouched).  *detail gets a one-line human summary either
  // way (the reason, on kError).
  ReloadOutcome ReloadFromSources(std::string* detail);

  // File-watch: if the image on disk is no longer the one being served (rename by
  // an external `routedb update`), reopen and hot-swap it.  kNoop when the file is
  // unchanged.  Cheap when nothing changed (one stat), so poll freely.
  ReloadOutcome CheckImage(std::string* detail);

  // Unmaps every retired image whose drain mark has been reached.  Returns how
  // many were freed.  Call from the serving loop after batches complete.
  size_t RetireDrained();

  size_t pending_retirements() const { return retired_.size(); }
  // Monotonic count of successful swaps — lets a test or stats line observe that a
  // rollover actually happened.
  uint64_t generation() const { return generation_; }
  // The publish generation stamped in the image being served
  // (ImageHeader::generation; 0 for pre-stamp images).  The HUP path refuses a
  // <image>.state whose stamp disagrees — see EnsureBuilder.
  uint64_t image_generation() const { return image_generation_; }

 private:
  struct ImageIdentity {
    dev_t dev = 0;
    ino_t inode = 0;
    off_t size = 0;
    int64_t mtime_sec = 0;
    int64_t mtime_nsec = 0;
    bool operator==(const ImageIdentity&) const = default;
  };
  struct RetiredImage {
    std::unique_ptr<FrozenImage> image;
    uint64_t mark;  // retire once engine batches_completed() >= mark
  };

  // stat() the served path into *out; false if it cannot be stat'd.
  bool StatImage(ImageIdentity* out) const;
  // Loads <image>.state into the resident builder (first HUP only); false + detail
  // on failure.  Refuses a state dir whose generation stamp disagrees with the
  // served image's — that pairing only arises from a torn update (crash between
  // the image rename and the manifest rename), and updating from mismatched
  // state would hand AdoptRoutes NameIds from a different id universe: the
  // "serve garbage" failure this PR exists to close.  The old map keeps serving.
  bool EnsureBuilder(std::string* detail);
  // Installs `fresh` as the serving image: AdoptRoutes with `dirty`, queue the old
  // image for retirement, refresh the identity record.
  void Swap(std::unique_ptr<FrozenImage> fresh, std::span<const NameId> dirty);

  RolloverOptions options_;
  std::unique_ptr<FrozenImage> current_;
  std::unique_ptr<exec::BatchEngine> engine_;
  std::unique_ptr<incr::MapBuilder> builder_;  // lazy: loaded on first HUP
  ImageIdentity identity_;                     // what is being served
  std::deque<RetiredImage> retired_;
  uint64_t generation_ = 0;
  uint64_t image_generation_ = 0;  // ImageHeader::generation of current_
};

}  // namespace net
}  // namespace pathalias

#endif  // SRC_NET_ROLLOVER_H_
