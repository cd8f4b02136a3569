#include "nn/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <stdexcept>

#include "tensor/serialize.hpp"
#include "util/fault_injection.hpp"

namespace ndsnn::nn {

namespace {
constexpr char kMagic[4] = {'N', 'D', 'C', 'K'};
constexpr uint32_t kVersionParamsOnly = 1;
constexpr uint32_t kVersionWithMeta = 2;
constexpr uint32_t kVersionWithQuant = 3;

void write_string(std::ostream& out, const std::string& s) {
  const auto len = static_cast<uint32_t>(s.size());
  out.write(reinterpret_cast<const char*>(&len), sizeof(len));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::istream& in) {
  uint32_t len = 0;
  in.read(reinterpret_cast<char*>(&len), sizeof(len));
  if (!in || len > (1u << 20)) throw std::runtime_error("checkpoint: bad string length");
  std::string s(len, '\0');
  in.read(s.data(), len);
  if (!in) throw std::runtime_error("checkpoint: truncated string");
  return s;
}

template <typename T>
void write_pod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
T read_pod(std::istream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw std::runtime_error("checkpoint: truncated header");
  return v;
}

void write_meta(std::ostream& out, const CheckpointMeta& meta) {
  write_string(out, meta.arch);
  const ModelSpec& s = meta.spec;
  write_pod(out, s.num_classes);
  write_pod(out, s.in_channels);
  write_pod(out, s.image_size);
  write_pod(out, s.timesteps);
  write_pod(out, s.width_scale);
  write_pod(out, s.lif.alpha);
  write_pod(out, s.lif.threshold);
  write_pod(out, static_cast<uint8_t>(s.lif.detach_reset));
  write_pod(out, static_cast<uint8_t>(s.lif.surrogate));
  write_pod(out, s.seed);
}

CheckpointMeta read_meta(std::istream& in) {
  CheckpointMeta meta;
  meta.arch = read_string(in);
  ModelSpec& s = meta.spec;
  s.num_classes = read_pod<int64_t>(in);
  s.in_channels = read_pod<int64_t>(in);
  s.image_size = read_pod<int64_t>(in);
  s.timesteps = read_pod<int64_t>(in);
  s.width_scale = read_pod<double>(in);
  s.lif.alpha = read_pod<float>(in);
  s.lif.threshold = read_pod<float>(in);
  s.lif.detach_reset = read_pod<uint8_t>(in) != 0;
  s.lif.surrogate = static_cast<snn::SurrogateKind>(read_pod<uint8_t>(in));
  s.seed = read_pod<uint64_t>(in);
  return meta;
}

/// Reads and validates magic + version; returns the version.
uint32_t read_header(std::istream& in) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("load_checkpoint: bad magic");
  }
  const auto version = read_pod<uint32_t>(in);
  if (version != kVersionParamsOnly && version != kVersionWithMeta &&
      version != kVersionWithQuant) {
    throw std::runtime_error("load_checkpoint: unsupported version");
  }
  return version;
}

void write_quant_record(std::ostream& out, const QuantRecord& quant) {
  write_pod(out, static_cast<uint32_t>(quant.layers.size()));
  for (const QuantRecordLayer& layer : quant.layers) {
    write_string(out, layer.param);
    write_pod(out, static_cast<uint8_t>(layer.precision));
    const auto groups = static_cast<uint64_t>(layer.scales.size());
    write_pod(out, groups);
    out.write(reinterpret_cast<const char*>(layer.scales.data()),
              static_cast<std::streamsize>(groups * sizeof(float)));
    // One zero-point byte per group, always 0: planes are symmetric.
    // The byte stays in the v3 layout so older files keep loading.
    const std::vector<char> zero_points(groups, 0);
    out.write(zero_points.data(), static_cast<std::streamsize>(groups));
  }
}

/// read_header + the v2 floor every architecture-record reader shares.
uint32_t read_header_with_meta(std::istream& in) {
  const uint32_t version = read_header(in);
  if (version < kVersionWithMeta) {
    throw std::runtime_error(
        "checkpoint: v1 file has no architecture record "
        "(re-save with save_checkpoint(..., CheckpointMeta) to serve it directly)");
  }
  return version;
}

QuantRecord read_quant_record(std::istream& in) {
  QuantRecord quant;
  const auto count = read_pod<uint32_t>(in);
  if (count > (1U << 16)) throw std::runtime_error("checkpoint: bad quant layer count");
  quant.layers.resize(count);
  for (QuantRecordLayer& layer : quant.layers) {
    layer.param = read_string(in);
    const auto p = read_pod<uint8_t>(in);
    if (p > static_cast<uint8_t>(sparse::Precision::kInt8)) {
      throw std::runtime_error("checkpoint: bad precision tag for " + layer.param);
    }
    layer.precision = static_cast<sparse::Precision>(p);
    const auto groups = read_pod<uint64_t>(in);
    if (groups > (1ULL << 24)) throw std::runtime_error("checkpoint: bad quant group count");
    layer.scales.resize(groups);
    in.read(reinterpret_cast<char*>(layer.scales.data()),
            static_cast<std::streamsize>(groups * sizeof(float)));
    // Skip the zero-point bytes (always 0; see write_quant_record).
    in.ignore(static_cast<std::streamsize>(groups));
    if (!in || in.gcount() != static_cast<std::streamsize>(groups)) {
      throw std::runtime_error("checkpoint: truncated quant record");
    }
  }
  return quant;
}

void write_params(std::ostream& out, SpikingNetwork& network) {
  const auto params = network.params();
  const auto count = static_cast<uint64_t>(params.size());
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const auto& p : params) {
    write_string(out, p.name);
    tensor::save_tensor(out, *p.value);
  }
  if (!out) throw std::runtime_error("save_checkpoint: stream write failed");
}

/// Crash-safe file write: serialize into `<path>.tmp`, fsync, then
/// rename over `path`. A crash (or the injected `checkpoint.write`
/// fault) at ANY point leaves the original checkpoint untouched — a
/// half-written .tmp is removed on failure and harmless if the process
/// died before that. rename(2) on the same filesystem is atomic, so a
/// reader never observes a torn checkpoint.
void atomic_write_file(const std::string& path,
                       const std::function<void(std::ostream&)>& write) {
  const std::string tmp = path + ".tmp";
  try {
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) {
        throw std::runtime_error("save_checkpoint_file: cannot open " + tmp);
      }
      write(out);
      if (util::fault::should_fail("checkpoint.write")) {
        throw std::runtime_error("injected fault: checkpoint.write");
      }
      out.flush();
      if (!out) {
        throw std::runtime_error("save_checkpoint_file: write failed for " + tmp);
      }
    }
    // Flush the data to disk BEFORE the rename: otherwise a power cut
    // can leave the rename durable but the bytes not — the original
    // gone and its replacement empty.
    const int fd = ::open(tmp.c_str(), O_WRONLY);
    if (fd < 0) {
      throw std::runtime_error("save_checkpoint_file: cannot reopen " + tmp);
    }
    const int sync_rc = ::fsync(fd);
    ::close(fd);
    if (sync_rc != 0) {
      throw std::runtime_error("save_checkpoint_file: fsync failed for " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      throw std::runtime_error("save_checkpoint_file: rename to " + path + " failed");
    }
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
}

void read_params(std::istream& in, SpikingNetwork& network) {
  uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  auto params = network.params();
  if (!in || count != params.size()) {
    throw std::runtime_error("load_checkpoint: parameter count mismatch");
  }
  for (auto& p : params) {
    const std::string name = read_string(in);
    if (name != p.name) {
      throw std::runtime_error("load_checkpoint: parameter name mismatch: expected '" +
                               p.name + "', found '" + name + "'");
    }
    tensor::Tensor loaded = tensor::load_tensor(in);
    if (loaded.shape() != p.value->shape()) {
      throw std::runtime_error("load_checkpoint: shape mismatch for " + p.name);
    }
    *p.value = std::move(loaded);
  }
}
}  // namespace

void save_checkpoint(std::ostream& out, SpikingNetwork& network) {
  out.write(kMagic, sizeof(kMagic));
  write_pod(out, kVersionParamsOnly);
  write_params(out, network);
}

void save_checkpoint(std::ostream& out, SpikingNetwork& network, const CheckpointMeta& meta) {
  out.write(kMagic, sizeof(kMagic));
  write_pod(out, kVersionWithMeta);
  write_meta(out, meta);
  write_params(out, network);
}

void save_checkpoint(std::ostream& out, SpikingNetwork& network, const CheckpointMeta& meta,
                     const QuantRecord& quant) {
  out.write(kMagic, sizeof(kMagic));
  write_pod(out, kVersionWithQuant);
  write_meta(out, meta);
  write_quant_record(out, quant);
  write_params(out, network);
}

QuantRecord build_quant_record(SpikingNetwork& network, sparse::Precision precision) {
  QuantRecord record;
  for (const auto& p : network.params()) {
    if (!p.prunable) continue;
    QuantRecordLayer layer;
    layer.param = p.name;
    layer.precision = precision;
    // fake_quantize_rows derives the same symmetric per-row scales
    // Csr::quantize will; quantise a copy so the network is untouched.
    tensor::Tensor copy = *p.value;
    layer.scales = sparse::fake_quantize_rows(copy, precision);
    record.layers.push_back(std::move(layer));
  }
  return record;
}

void load_checkpoint(std::istream& in, SpikingNetwork& network) {
  const uint32_t version = read_header(in);
  if (version >= kVersionWithMeta) {
    (void)read_meta(in);  // the live network defines the expected shapes
  }
  if (version >= kVersionWithQuant) {
    (void)read_quant_record(in);  // restoring fp32 params; record not needed
  }
  read_params(in, network);
}

CheckpointMeta read_checkpoint_meta(std::istream& in) {
  (void)read_header_with_meta(in);
  return read_meta(in);
}

QuantRecord read_checkpoint_quant(std::istream& in) {
  if (read_header(in) < kVersionWithQuant) {
    throw std::runtime_error(
        "read_checkpoint_quant: checkpoint predates v3 and has no quantisation record");
  }
  (void)read_meta(in);
  return read_quant_record(in);
}

QuantRecord read_checkpoint_quant_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("read_checkpoint_quant_file: cannot open " + path);
  return read_checkpoint_quant(in);
}

std::unique_ptr<SpikingNetwork> load_checkpoint_network(const std::string& path,
                                                        QuantRecord* quant) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_checkpoint_network: cannot open " + path);
  const uint32_t version = read_header_with_meta(in);
  const CheckpointMeta meta = read_meta(in);
  if (version >= kVersionWithQuant) {
    QuantRecord record = read_quant_record(in);
    if (quant != nullptr) *quant = std::move(record);
  } else if (quant != nullptr) {
    quant->layers.clear();
  }
  auto network = make_model(meta.arch, meta.spec);
  read_params(in, *network);
  return network;
}

void save_checkpoint_file(const std::string& path, SpikingNetwork& network) {
  atomic_write_file(path, [&](std::ostream& out) { save_checkpoint(out, network); });
}

void save_checkpoint_file(const std::string& path, SpikingNetwork& network,
                          const CheckpointMeta& meta) {
  atomic_write_file(path,
                    [&](std::ostream& out) { save_checkpoint(out, network, meta); });
}

void save_checkpoint_file(const std::string& path, SpikingNetwork& network,
                          const CheckpointMeta& meta, const QuantRecord& quant) {
  atomic_write_file(
      path, [&](std::ostream& out) { save_checkpoint(out, network, meta, quant); });
}

void load_checkpoint_file(const std::string& path, SpikingNetwork& network) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_checkpoint_file: cannot open " + path);
  load_checkpoint(in, network);
}

CheckpointMeta read_checkpoint_meta_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("read_checkpoint_meta_file: cannot open " + path);
  return read_checkpoint_meta(in);
}

}  // namespace ndsnn::nn
