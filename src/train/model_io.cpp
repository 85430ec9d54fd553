#include "train/model_io.hpp"

#include "train/config_io.hpp"
#include "util/serialize.hpp"

#include <stdexcept>

namespace cgps {

namespace {
constexpr std::uint32_t kBundleMagic = 0x324D4743;  // "CGM2"
constexpr std::uint32_t kBundleVersion = 2;
// Retired formats, recognised only to name them in the rejection.
constexpr std::uint32_t kRetiredMagicV1 = 0x43474D42;  // "CGMB"
constexpr std::uint32_t kRetiredMagicV3 = 0x334D4743;  // "CGM3"
}  // namespace

void save_model_bundle(const CircuitGps& model, const std::string& path,
                       const XcNormalizer* normalizer) {
  BinaryWriter writer(path);
  writer.write_u32(kBundleMagic);
  writer.write_u32(kBundleVersion);
  ExperimentConfig wrapper;
  wrapper.gps = model.config();
  writer.write_string(to_config_text(wrapper));
  const bool has_normalizer = normalizer != nullptr && normalizer->fitted();
  writer.write_u32(has_normalizer ? 1u : 0u);
  if (has_normalizer) {
    for (float v : normalizer->min()) writer.write_f32(v);
    for (float v : normalizer->max()) writer.write_f32(v);
  }
  nn::save_checkpoint(model, writer);
}

ModelBundle load_model_bundle_full(const std::string& path) {
  BinaryReader reader(path);
  const std::uint32_t magic = reader.read_u32();
  if (magic == kRetiredMagicV1)
    throw std::runtime_error("load_model_bundle: retired v1 bundle format \"CGMB\" in " + path +
                             " (only \"CGM2\" is supported)");
  if (magic == kRetiredMagicV3)
    throw std::runtime_error("load_model_bundle: retired v3 bundle format \"CGM3\" in " + path +
                             " (only \"CGM2\" is supported)");
  if (magic != kBundleMagic)
    throw std::runtime_error("load_model_bundle: bad magic in " + path);
  const std::uint32_t version = reader.read_u32();
  if (version != kBundleVersion)
    throw std::runtime_error("load_model_bundle: unsupported bundle version " +
                             std::to_string(version) + " in " + path);
  const std::string config_text = reader.read_string();
  ModelBundle bundle;
  if (reader.read_u32() != 0) {
    std::array<float, kXcDim> min{};
    std::array<float, kXcDim> max{};
    for (float& v : min) v = reader.read_f32();
    for (float& v : max) v = reader.read_f32();
    bundle.normalizer.restore(min, max);
  }
  const ExperimentConfig config = parse_experiment_config(config_text);
  bundle.model = std::make_unique<CircuitGps>(config.gps);
  nn::load_checkpoint(*bundle.model, reader);
  return bundle;
}

std::unique_ptr<CircuitGps> load_model_bundle(const std::string& path) {
  return load_model_bundle_full(path).model;
}

}  // namespace cgps
