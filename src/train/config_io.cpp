#include "train/config_io.hpp"

#include "util/strings.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace cgps {

namespace {

[[noreturn]] void bad_line(const std::string& what, const std::string& line) {
  throw std::runtime_error("config: " + what + " in line: " + line);
}

MpnnKind parse_mpnn(const std::string& v, const std::string& line) {
  if (v == "none") return MpnnKind::kNone;
  if (v == "gatedgcn") return MpnnKind::kGatedGcn;
  if (v == "gine") return MpnnKind::kGine;
  bad_line("unknown mpnn kind '" + v + "'", line);
}

AttnKind parse_attn(const std::string& v, const std::string& line) {
  if (v == "none") return AttnKind::kNone;
  if (v == "transformer") return AttnKind::kTransformer;
  if (v == "performer") return AttnKind::kPerformer;
  bad_line("unknown attention kind '" + v + "'", line);
}

PeKind parse_pe(const std::string& v, const std::string& line) {
  if (v == "none") return PeKind::kNone;
  if (v == "xc") return PeKind::kXc;
  if (v == "drnl") return PeKind::kDrnl;
  if (v == "rwse") return PeKind::kRwse;
  if (v == "lappe") return PeKind::kLappe;
  if (v == "dspd") return PeKind::kDspd;
  bad_line("unknown pe kind '" + v + "'", line);
}

const char* mpnn_token(MpnnKind k) {
  switch (k) {
    case MpnnKind::kNone: return "none";
    case MpnnKind::kGatedGcn: return "gatedgcn";
    case MpnnKind::kGine: return "gine";
  }
  return "?";
}
const char* attn_token(AttnKind k) {
  switch (k) {
    case AttnKind::kNone: return "none";
    case AttnKind::kTransformer: return "transformer";
    case AttnKind::kPerformer: return "performer";
  }
  return "?";
}
const char* pe_token(PeKind k) {
  switch (k) {
    case PeKind::kNone: return "none";
    case PeKind::kXc: return "xc";
    case PeKind::kDrnl: return "drnl";
    case PeKind::kRwse: return "rwse";
    case PeKind::kLappe: return "lappe";
    case PeKind::kDspd: return "dspd";
  }
  return "?";
}

template <typename T>
T numeric(const std::string& v, const std::string& line) {
  try {
    if constexpr (std::is_floating_point_v<T>) {
      return static_cast<T>(std::stod(v));
    } else {
      return static_cast<T>(std::stoll(v));
    }
  } catch (...) {
    bad_line("bad numeric value '" + v + "'", line);
  }
}

// Architecture sizes (widths, depths, head counts) must be at least 1: a zero
// reaches `dim % heads` and friends in the model constructors.
template <typename T>
T positive(const std::string& v, const std::string& line) {
  const T n = numeric<T>(v, line);
  if (n < 1) bad_line("value must be >= 1, got '" + v + "'", line);
  return n;
}

}  // namespace

ExperimentConfig parse_experiment_config(const std::string& text) {
  ExperimentConfig config;
  std::istringstream in(text);
  std::string raw;
  while (std::getline(in, raw)) {
    if (const auto hash = raw.find('#'); hash != std::string::npos) raw.resize(hash);
    std::string line = trim(raw);
    if (line.empty()) continue;
    // Accept `key = value` as well as `key value`.
    for (char& c : line)
      if (c == '=') c = ' ';
    const auto tokens = split_ws(line);
    if (tokens.size() != 2) bad_line("expected 'key value'", raw);
    const std::string key = to_lower(tokens[0]);
    const std::string value = to_lower(tokens[1]);

    if (key == "gps.hidden") config.gps.hidden = positive<std::int64_t>(value, raw);
    else if (key == "gps.layers") config.gps.layers = positive<int>(value, raw);
    else if (key == "gps.mpnn") config.gps.mpnn = parse_mpnn(value, raw);
    else if (key == "gps.attn") config.gps.attn = parse_attn(value, raw);
    else if (key == "gps.heads") config.gps.heads = positive<int>(value, raw);
    else if (key == "gps.performer_features")
      config.gps.performer_features = positive<int>(value, raw);
    else if (key == "gps.dropout") config.gps.dropout = numeric<float>(value, raw);
    else if (key == "gps.pe") config.gps.pe = parse_pe(value, raw);
    else if (key == "gps.rwse_steps") config.gps.rwse_steps = numeric<int>(value, raw);
    else if (key == "gps.lappe_k") config.gps.lappe_k = numeric<int>(value, raw);
    else if (key == "gps.head_hidden") config.gps.head_hidden = positive<std::int64_t>(value, raw);
    else if (key == "gps.anchor_readout")
      config.gps.anchor_readout = value == "1" || value == "true" || value == "on";
    else if (key == "gps.seed") config.gps.seed = numeric<std::uint64_t>(value, raw);
    else if (key == "train.epochs") config.train.epochs = numeric<int>(value, raw);
    else if (key == "train.batch_size") config.train.batch_size = numeric<int>(value, raw);
    else if (key == "train.lr") config.train.lr = numeric<float>(value, raw);
    else if (key == "train.lr_schedule") {
      if (value == "constant") config.train.lr_schedule = LrSchedule::kConstant;
      else if (value == "cosine") config.train.lr_schedule = LrSchedule::kCosine;
      else bad_line("unknown lr schedule '" + value + "'", raw);
    }
    else if (key == "train.grad_clip") config.train.grad_clip = numeric<float>(value, raw);
    else if (key == "train.weight_decay")
      config.train.weight_decay = numeric<float>(value, raw);
    else if (key == "train.target_weight_alpha")
      config.train.target_weight_alpha = numeric<float>(value, raw);
    else if (key == "subgraph.hops") config.subgraph.hops = numeric<std::int32_t>(value, raw);
    else if (key == "subgraph.max_nodes_per_anchor")
      config.subgraph.max_nodes_per_anchor = numeric<std::int64_t>(value, raw);
    else bad_line("unknown key '" + tokens[0] + "'", raw);
  }
  return config;
}

ExperimentConfig load_experiment_config(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("config: cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse_experiment_config(text.str());
}

std::string to_config_text(const ExperimentConfig& config) {
  std::ostringstream os;
  os << "gps.hidden " << config.gps.hidden << '\n';
  os << "gps.layers " << config.gps.layers << '\n';
  os << "gps.mpnn " << mpnn_token(config.gps.mpnn) << '\n';
  os << "gps.attn " << attn_token(config.gps.attn) << '\n';
  os << "gps.heads " << config.gps.heads << '\n';
  os << "gps.performer_features " << config.gps.performer_features << '\n';
  os << "gps.dropout " << config.gps.dropout << '\n';
  os << "gps.pe " << pe_token(config.gps.pe) << '\n';
  os << "gps.rwse_steps " << config.gps.rwse_steps << '\n';
  os << "gps.lappe_k " << config.gps.lappe_k << '\n';
  os << "gps.head_hidden " << config.gps.head_hidden << '\n';
  os << "gps.anchor_readout " << (config.gps.anchor_readout ? "true" : "false") << '\n';
  os << "gps.seed " << config.gps.seed << '\n';
  os << "train.epochs " << config.train.epochs << '\n';
  os << "train.batch_size " << config.train.batch_size << '\n';
  os << "train.lr " << config.train.lr << '\n';
  os << "train.lr_schedule "
     << (config.train.lr_schedule == LrSchedule::kCosine ? "cosine" : "constant") << '\n';
  os << "train.grad_clip " << config.train.grad_clip << '\n';
  os << "train.weight_decay " << config.train.weight_decay << '\n';
  os << "train.target_weight_alpha " << config.train.target_weight_alpha << '\n';
  os << "subgraph.hops " << config.subgraph.hops << '\n';
  os << "subgraph.max_nodes_per_anchor " << config.subgraph.max_nodes_per_anchor << '\n';
  return os.str();
}

}  // namespace cgps
