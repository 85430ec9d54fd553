// Self-describing model bundles: a CircuitGPS checkpoint stored together
// with its architecture configuration, so a saved meta-learner can be
// reloaded (e.g. for later fine-tuning on a new design, or by cgps_serve)
// without out-of-band knowledge of its hyperparameters.
//
// One on-disk format, "CGM2": magic, format version 2, the config text, the
// fitted XcNormalizer bounds (so inference normalizes X_C exactly as training
// did instead of refitting on whatever graphs happen to be served), then the
// fp32 weights. The retired "CGMB" (v1) and "CGM3" (v3, int8 section) files
// are rejected with an error naming the format.
#pragma once

#include "gps/batch.hpp"
#include "gps/model.hpp"

#include <memory>
#include <string>

namespace cgps {

// A loaded bundle. `normalizer.fitted()` is false for files saved without
// one — callers must then fit their own (and should warn: predictions will
// not match the training-time feature scaling).
struct ModelBundle {
  std::unique_ptr<CircuitGps> model;
  XcNormalizer normalizer;
};

// `normalizer` may be null or unfitted; the bundle records its absence.
void save_model_bundle(const CircuitGps& model, const std::string& path,
                       const XcNormalizer* normalizer = nullptr);

// Reconstructs the model from the embedded config and loads the weights.
// Throws std::runtime_error on magic/format mismatch, a retired format, or a
// corrupt record.
std::unique_ptr<CircuitGps> load_model_bundle(const std::string& path);

// As load_model_bundle, but also surfaces the stored normalizer bounds.
ModelBundle load_model_bundle_full(const std::string& path);

}  // namespace cgps
