#include "nn/module.hpp"

#include "util/serialize.hpp"

#include <map>
#include <stdexcept>

namespace cgps::nn {

Tensor& Module::register_parameter(std::string name, Tensor tensor) {
  tensor.set_requires_grad(true);
  params_.emplace_back(std::move(name), std::move(tensor));
  return params_.back().second;
}

void Module::register_module(std::string name, Module& child) {
  children_.emplace_back(std::move(name), &child);
}

void Module::register_buffer(std::string name, std::vector<float>& buffer) {
  buffers_.emplace_back(std::move(name), &buffer);
}

void Module::collect_params(const std::string& prefix,
                            std::vector<std::pair<std::string, Tensor>>& out) const {
  for (const auto& [name, tensor] : params_) out.emplace_back(prefix + name, tensor);
  for (const auto& [name, child] : children_) child->collect_params(prefix + name + ".", out);
}

void Module::collect_buffers(
    const std::string& prefix,
    std::vector<std::pair<std::string, std::vector<float>*>>& out) const {
  for (const auto& [name, buf] : buffers_) out.emplace_back(prefix + name, buf);
  for (const auto& [name, child] : children_) child->collect_buffers(prefix + name + ".", out);
}

std::vector<Tensor> Module::parameters() const {
  std::vector<std::pair<std::string, Tensor>> named;
  collect_params("", named);
  std::vector<Tensor> out;
  out.reserve(named.size());
  for (auto& [name, tensor] : named) out.push_back(tensor);
  return out;
}

std::vector<std::pair<std::string, Tensor>> Module::named_parameters() const {
  std::vector<std::pair<std::string, Tensor>> out;
  collect_params("", out);
  return out;
}

std::vector<std::pair<std::string, std::vector<float>*>> Module::named_buffers() const {
  std::vector<std::pair<std::string, std::vector<float>*>> out;
  collect_buffers("", out);
  return out;
}

std::int64_t Module::num_parameters() const {
  std::int64_t total = 0;
  for (const Tensor& p : parameters()) total += p.numel();
  return total;
}

void Module::set_training(bool training) {
  training_ = training;
  for (auto& [name, child] : children_) child->set_training(training);
}

void Module::set_requires_grad(bool value) {
  for (Tensor& p : parameters()) p.set_requires_grad(value);
}

void save_checkpoint(const Module& module, const std::string& path) {
  BinaryWriter writer(path);
  save_checkpoint(module, writer);
}

void load_checkpoint(Module& module, const std::string& path) {
  BinaryReader reader(path);
  load_checkpoint(module, reader);
}

void save_checkpoint(const Module& module, BinaryWriter& writer) {
  writer.write_u32(0x43475053);  // "CGPS"
  const auto params = module.named_parameters();
  writer.write_u64(params.size());
  for (const auto& [name, tensor] : params) {
    writer.write_string(name);
    writer.write_u64(static_cast<std::uint64_t>(tensor.rows()));
    writer.write_u64(static_cast<std::uint64_t>(tensor.cols()));
    auto data = tensor.data();
    writer.write_f32_vector(std::vector<float>(data.begin(), data.end()));
  }
  const auto buffers = module.named_buffers();
  writer.write_u64(buffers.size());
  for (const auto& [name, buf] : buffers) {
    writer.write_string(name);
    writer.write_f32_vector(*buf);
  }
}

void load_checkpoint(Module& module, BinaryReader& reader) {
  if (reader.read_u32() != 0x43475053)
    throw std::runtime_error("load_checkpoint: bad magic");

  std::map<std::string, Tensor> params;
  for (auto& [name, tensor] : module.named_parameters()) params.emplace(name, tensor);

  const std::uint64_t n_params = reader.read_u64();
  for (std::uint64_t i = 0; i < n_params; ++i) {
    const std::string name = reader.read_string();
    const auto rows = static_cast<std::int64_t>(reader.read_u64());
    const auto cols = static_cast<std::int64_t>(reader.read_u64());
    const std::vector<float> data = reader.read_f32_vector();
    auto it = params.find(name);
    if (it == params.end())
      throw std::runtime_error("load_checkpoint: unknown parameter " + name);
    Tensor t = it->second;
    if (t.rows() != rows || t.cols() != cols)
      throw std::runtime_error("load_checkpoint: shape mismatch for " + name);
    // The element count comes from the file independently of rows/cols: an
    // overlong record would overrun the tensor, a short one leave stale data.
    if (static_cast<std::int64_t>(data.size()) != rows * cols)
      throw std::runtime_error("load_checkpoint: element count mismatch for " + name);
    std::copy(data.begin(), data.end(), t.data().begin());
  }

  std::map<std::string, std::vector<float>*> buffers;
  for (auto& [name, buf] : module.named_buffers()) buffers.emplace(name, buf);
  const std::uint64_t n_buffers = reader.read_u64();
  for (std::uint64_t i = 0; i < n_buffers; ++i) {
    const std::string name = reader.read_string();
    const std::vector<float> data = reader.read_f32_vector();
    auto it = buffers.find(name);
    if (it == buffers.end()) throw std::runtime_error("load_checkpoint: unknown buffer " + name);
    if (it->second->size() != data.size())
      throw std::runtime_error("load_checkpoint: buffer size mismatch for " + name);
    *it->second = data;
  }
}

void copy_state(const Module& source, Module& target) {
  const auto src_params = source.named_parameters();
  auto dst_params = target.named_parameters();
  if (src_params.size() != dst_params.size())
    throw std::runtime_error("copy_state: parameter count mismatch");
  for (std::size_t i = 0; i < src_params.size(); ++i) {
    const Tensor& s = src_params[i].second;
    Tensor& d = dst_params[i].second;
    if (src_params[i].first != dst_params[i].first || s.numel() != d.numel())
      throw std::runtime_error("copy_state: mismatch at " + src_params[i].first);
    std::copy(s.data().begin(), s.data().end(), d.data().begin());
  }
  const auto src_buffers = source.named_buffers();
  auto dst_buffers = target.named_buffers();
  if (src_buffers.size() != dst_buffers.size())
    throw std::runtime_error("copy_state: buffer count mismatch");
  for (std::size_t i = 0; i < src_buffers.size(); ++i) {
    if (src_buffers[i].first != dst_buffers[i].first ||
        src_buffers[i].second->size() != dst_buffers[i].second->size())
      throw std::runtime_error("copy_state: buffer mismatch at " + src_buffers[i].first);
    *dst_buffers[i].second = *src_buffers[i].second;
  }
}

}  // namespace cgps::nn
