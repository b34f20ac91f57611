#include "src/net/rollover.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "src/image/image_writer.h"
#include "src/incr/state_dir.h"
#include "src/parser/parser.h"
#include "src/support/failpoint.h"

namespace pathalias {
namespace net {

namespace {

// Route equality for the image-diff path: same key, same expansion bytes, same
// cost (two no-routes are equal).
bool SameRoute(const RouteView& a, const RouteView& b) {
  if (a.ok() != b.ok()) {
    return false;
  }
  if (!a.ok()) {
    return true;
  }
  return a.name == b.name && a.cost == b.cost && a.route == b.route;
}

}  // namespace

bool RolloverController::StatImage(ImageIdentity* out) const {
  struct stat st;
  if (::stat(options_.image_path.c_str(), &st) != 0) {
    return false;
  }
  out->dev = st.st_dev;
  out->inode = st.st_ino;
  out->size = st.st_size;
  out->mtime_sec = static_cast<int64_t>(st.st_mtim.tv_sec);
  out->mtime_nsec = static_cast<int64_t>(st.st_mtim.tv_nsec);
  return true;
}

bool RolloverController::Start(std::string* error) {
  auto image = FrozenImage::Open(options_.image_path, image::ImageView::Verify::kStructure,
                                 error, /*readahead=*/true);
  if (!image.has_value()) {
    return false;
  }
  current_ = std::make_unique<FrozenImage>(std::move(*image));
  image_generation_ = current_->view().header().generation;
  engine_ = std::make_unique<exec::BatchEngine>(&current_->routes(), options_.engine);
  StatImage(&identity_);  // best-effort: a failed stat just means CheckImage re-opens
  return true;
}

bool RolloverController::EnsureBuilder(std::string* detail) {
  if (builder_ != nullptr) {
    return true;
  }
  std::string state_dir = options_.image_path + ".state";
  std::string error;
  auto state = incr::LoadStateDir(state_dir, &error);
  if (!state.has_value()) {
    *detail = "cannot load " + state_dir + " (" + error +
              "); run `routedb update --init` before HUP-reloading";
    return false;
  }
  // Generation agreement: the state dir must be the one published with the
  // image being served.  A disagreement means the last publish tore between
  // the image rename and the manifest rename — the state's NameId assignment
  // may not match the image's, and building on it could make AdoptRoutes adopt
  // routes keyed by the wrong ids.  Refuse; the old map keeps serving, and
  // `routedb update` (which re-freezes the whole image) heals the pairing.
  // Stamps of 0 are pre-generation files and can't be checked.
  if (state->image_generation != 0 && image_generation_ != 0 &&
      state->image_generation != image_generation_) {
    *detail = "generation mismatch: " + state_dir + " is generation " +
              std::to_string(state->image_generation) + " but the served image is " +
              std::to_string(image_generation_) +
              " (torn update?); run `routedb update` to republish both";
    return false;
  }
  incr::MapBuilderOptions builder_options;
  builder_options.local = state->local;
  builder_options.ignore_case = state->ignore_case;
  auto builder = std::make_unique<incr::MapBuilder>(builder_options);
  if (!builder->BuildFromArtifacts(std::move(state->artifacts))) {
    *detail = "retained state in " + state_dir + " no longer builds";
    return false;
  }
  builder_ = std::move(builder);
  return true;
}

ReloadOutcome RolloverController::ReloadFromSources(std::string* detail) {
  if (options_.map_files.empty()) {
    *detail = "no map files configured; reload-from-sources disabled";
    return ReloadOutcome::kError;
  }
  if (!EnsureBuilder(detail)) {
    return ReloadOutcome::kError;
  }
  // Offer every configured file; the builder's digest check turns the unchanged
  // ones into no-ops without lexing them.
  std::vector<InputFile> files;
  files.reserve(options_.map_files.size());
  for (const std::string& path : options_.map_files) {
    std::ifstream in(path);
    if (!in) {
      *detail = "cannot open map file " + path;
      return ReloadOutcome::kError;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    files.push_back({path, std::move(buffer).str()});
  }
  incr::UpdateStats stats = builder_->Update(files);
  if (!builder_->valid()) {
    // The builder's retained state may be damaged too: drop it so the next HUP
    // reloads from the state dir instead of updating on top of a broken graph.
    builder_.reset();
    *detail = "update left no buildable map; previous image still serving";
    return ReloadOutcome::kError;
  }
  if (builder_->dirty_route_ids().empty()) {
    // No source change — but if a previous reload published the image and then
    // failed to reopen it, the file on disk is ahead of the map being served.
    // Reconcile through the image-diff path rather than reporting a no-op that
    // would strand the old map until the next source edit.
    ImageIdentity now;
    if (StatImage(&now) && !(now == identity_)) {
      return CheckImage(detail);
    }
    *detail = "no route changed (" + std::to_string(stats.files_unchanged) +
              " file(s) digest-unchanged)";
    return ReloadOutcome::kNoop;
  }
  // Publish image first, then state, both stamped with the same generation: a
  // crash between the two leaves the image ahead of the state, which the next
  // EnsureBuilder detects as a mismatch instead of serving a mixed pair.
  const uint64_t next_generation = image_generation_ + 1;
  std::string error;
  if (!image::ImageWriter::Refreeze(builder_->routes(), options_.image_path,
                                    next_generation, &error)) {
    // The builder already absorbed the file changes, so a retry would see
    // digest-clean sources and no-op with the publish still missing.  Drop it:
    // the next reload rebuilds from the state dir (still paired with the served
    // image) and re-applies the edits as a fresh update.
    builder_.reset();
    *detail = "cannot rewrite " + options_.image_path + ": " + error;
    return ReloadOutcome::kError;
  }
  incr::StateDirContents contents;
  contents.local = builder_->options().local;
  contents.ignore_case = builder_->options().ignore_case;
  contents.image_generation = next_generation;
  contents.artifacts = builder_->artifacts();
  if (!incr::SaveStateDir(options_.image_path + ".state", contents)) {
    // The image is already rewritten and sound; a stale state dir only costs the
    // next update a rebuild.  Swap anyway, but say so.
    *detail = "warning: cannot save " + options_.image_path + ".state; ";
  } else {
    detail->clear();
  }
  if (support::failpoint::Inject("rollover.reopen")) {
    *detail += "refrozen image fails to open: injected failure (rollover.reopen)";
    return ReloadOutcome::kError;
  }
  auto fresh = FrozenImage::Open(options_.image_path, image::ImageView::Verify::kStructure,
                                 &error, /*readahead=*/true);
  if (!fresh.has_value()) {
    *detail += "refrozen image fails to open: " + error;
    return ReloadOutcome::kError;
  }
  Swap(std::make_unique<FrozenImage>(std::move(*fresh)), builder_->dirty_route_ids());
  *detail += (stats.patched ? "patched" : "rebuilt");
  *detail += ", " + std::to_string(stats.routes_changed) + " route(s) changed, " +
             std::to_string(builder_->routes().size()) + " total";
  return ReloadOutcome::kApplied;
}

ReloadOutcome RolloverController::CheckImage(std::string* detail) {
  ImageIdentity now;
  if (!StatImage(&now)) {
    *detail = "cannot stat " + options_.image_path + "; previous image still serving";
    return ReloadOutcome::kError;
  }
  if (now == identity_) {
    *detail = "image unchanged";
    return ReloadOutcome::kNoop;
  }
  if (support::failpoint::Inject("rollover.reopen")) {
    // identity_ is deliberately NOT updated: the next watch tick sees the same
    // changed file and retries the open — transient failures self-heal.
    *detail = "changed image fails to open: injected failure (rollover.reopen)";
    return ReloadOutcome::kError;
  }
  std::string error;
  auto opened = FrozenImage::Open(options_.image_path, image::ImageView::Verify::kStructure,
                                  &error, /*readahead=*/true);
  if (!opened.has_value()) {
    // Likely caught the replacer mid-write (Refreeze renames atomically, but a
    // copy-based updater would not).  Keep serving; the next poll retries.
    *detail = "changed image fails to open: " + error;
    return ReloadOutcome::kError;
  }
  auto fresh = std::make_unique<FrozenImage>(std::move(*opened));
  const FrozenRouteSet& old_routes = current_->routes();
  const FrozenRouteSet& new_routes = fresh->routes();

  // AdoptRoutes requires a stable id assignment.  Refreeze guarantees it (ids are
  // append-only across updates), but an externally replaced file could be anything
  // — verify the common prefix of the interners byte-for-byte before trusting it.
  const size_t old_names = old_routes.names().size();
  const size_t new_names = new_routes.names().size();
  const size_t common = std::min(old_names, new_names);
  bool compatible = old_routes.names().fold_case() == new_routes.names().fold_case();
  for (NameId id = 0; compatible && id < common; ++id) {
    if (old_routes.names().View(id) != new_routes.names().View(id)) {
      compatible = false;
    }
  }

  // The external updater doesn't tell us what changed, and the resident builder
  // (if any) no longer describes the file on disk either way.
  builder_.reset();

  if (!compatible) {
    // Different id universe: targeted invalidation is meaningless.  Replace the
    // whole engine — cold caches, correct results.  The old engine dies here on
    // the serving thread (between batches), so nothing references the old image
    // except possibly pool-thread batches already counted; retire as usual.
    std::unique_ptr<FrozenImage> old = std::move(current_);
    uint64_t mark = engine_->batches_started();
    current_ = std::move(fresh);
    image_generation_ = current_->view().header().generation;
    engine_ = std::make_unique<exec::BatchEngine>(&current_->routes(), options_.engine);
    retired_.push_back({std::move(old), mark});
    identity_ = now;
    ++generation_;
    *detail = "image replaced with an incompatible id assignment; engine rebuilt cold";
    return ReloadOutcome::kApplied;
  }

  // Diff the two mappings into the dirty-id set AdoptRoutes wants: every common id
  // whose route changed, plus every new id that has a route (a cached miss whose
  // chain now reaches one must be condemned — the chain-closure pass handles the
  // fan-out, it just needs the new id in the set).
  std::vector<NameId> dirty;
  for (NameId id = 0; id < common; ++id) {
    if (!SameRoute(old_routes.FindRouteView(id), new_routes.FindRouteView(id))) {
      dirty.push_back(id);
    }
  }
  for (NameId id = static_cast<NameId>(common); id < new_names; ++id) {
    if (new_routes.HasRoute(id)) {
      dirty.push_back(id);
    }
  }
  size_t changed = dirty.size();
  Swap(std::move(fresh), dirty);  // re-stats the path, superseding `now`
  *detail = "image replaced on disk; " + std::to_string(changed) + " route(s) changed";
  return ReloadOutcome::kApplied;
}

void RolloverController::Swap(std::unique_ptr<FrozenImage> fresh,
                              std::span<const NameId> dirty) {
  uint64_t mark = engine_->batches_started();
  std::unique_ptr<FrozenImage> old = std::move(current_);
  current_ = std::move(fresh);
  image_generation_ = current_->view().header().generation;
  engine_->AdoptRoutes(&current_->routes(), dirty);
  retired_.push_back({std::move(old), mark});
  StatImage(&identity_);
  ++generation_;
}

size_t RolloverController::RetireDrained() {
  size_t freed = 0;
  uint64_t completed = engine_->batches_completed();
  while (!retired_.empty() && completed >= retired_.front().mark) {
    retired_.pop_front();
    ++freed;
  }
  return freed;
}

}  // namespace net
}  // namespace pathalias
