// Seeded mutation test over the byte decoders that read input from outside
// the process: the five protocol messages, a save_params blob, a kFixed8
// latent payload and a ColdStore record (through its file in a temp
// directory).
//
// Each case starts from a valid encoding and decodes a few thousand
// mutants of it:
//   * every truncation (each proper prefix, the empty one included);
//   * an 8-byte word overwritten with 0, 1, 2^32, 2^40 or UINT64_MAX, at
//     every offset (the aligned ones and the rest: a length-prefixed name
//     leaves the fields after it on no fixed alignment);
//   * with a fixed seed, 1-4 flipped bytes and 1-16 appended bytes.
// Every decode must either return or throw std::invalid_argument, the
// ORCO_CHECK outcome of malformed input. Any other exception fails the
// case; built with -DORCO_SANITIZE=address,undefined, so does every memory
// error, oversized allocation or null memcpy the sanitizers see. A
// save_params blob that load_params refuses must also leave the target
// model's weights as they were.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "core/messages.h"
#include "core/quantization.h"
#include "core/system.h"
#include "fleet/cold_store.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/model_io.h"
#include "nn/sequential.h"

namespace orco {
namespace {

using Bytes = std::vector<std::byte>;
using Decoder = std::function<void(const Bytes&)>;
using tensor::Tensor;

constexpr std::uint64_t kWords[] = {0, 1, std::uint64_t{1} << 32,
                                    std::uint64_t{1} << 40,
                                    ~std::uint64_t{0}};
constexpr int kRandomMutants = 2000;

/// What escaped `decode` (exception type, then message); empty when it
/// returned or threw std::invalid_argument.
std::pair<std::string, std::string> escaped(const Decoder& decode,
                                            const Bytes& bytes) {
  try {
    decode(bytes);
  } catch (const std::invalid_argument&) {
  } catch (const std::exception& e) {
    return {typeid(e).name(), e.what()};
  } catch (...) {
    return {"(not a std::exception)", ""};
  }
  return {};
}

/// Decodes `valid` and every mutant of it; expects each to return or throw
/// std::invalid_argument, and reports per escaped exception type how many
/// mutants raised it and the first of them.
void fuzz(const char* what, const Bytes& valid, const Decoder& decode,
          std::uint64_t seed) {
  SCOPED_TRACE(what);
  ASSERT_EQ(escaped(decode, valid).first, "")
      << "the valid encoding must decode";
  ASSERT_GE(valid.size(), 8u);
  std::size_t mutants = 0, failures = 0;
  std::map<std::string, std::pair<std::size_t, std::string>> by_type;
  const auto check = [&](const Bytes& mutant, const std::string& how) {
    ++mutants;
    const auto [type, message] = escaped(decode, mutant);
    if (type.empty()) return;
    ++failures;
    auto& [count, first] = by_type[type];
    if (count++ == 0) first = how + " -> " + message;
  };
  for (std::size_t len = 0; len < valid.size(); ++len) {
    check(Bytes(valid.begin(), valid.begin() + static_cast<long>(len)),
          "truncated to " + std::to_string(len));
  }
  for (std::size_t at = 0; at + 8 <= valid.size(); ++at) {
    for (const std::uint64_t word : kWords) {
      Bytes mutant = valid;
      std::memcpy(mutant.data() + at, &word, sizeof word);
      check(mutant, "word " + std::to_string(word) + " at " +
                        std::to_string(at));
    }
  }
  common::Pcg32 rng(seed);
  const auto size = static_cast<std::uint32_t>(valid.size());
  for (int i = 0; i < kRandomMutants; ++i) {
    Bytes mutant = valid;
    std::string how;
    if (i % 2 == 0) {
      const std::uint32_t flips = 1 + rng.bounded(4);
      for (std::uint32_t f = 0; f < flips; ++f) {
        const std::uint32_t at = rng.bounded(size);
        mutant[at] ^= static_cast<std::byte>(1 + rng.bounded(255));
        how += "flip@" + std::to_string(at) + " ";
      }
    } else {
      const std::uint32_t extra = 1 + rng.bounded(16);
      for (std::uint32_t e = 0; e < extra; ++e) {
        mutant.push_back(static_cast<std::byte>(rng.bounded(256)));
      }
      how = "appended " + std::to_string(extra) + " bytes";
    }
    check(mutant, how);
  }
  std::string report;
  for (const auto& [type, seen] : by_type) {
    report += "\n  " + type + " x" + std::to_string(seen.first) +
              ", first: " + seen.second;
  }
  EXPECT_EQ(failures, 0u) << failures << " of " << mutants
                          << " mutants escaped:" << report;
}

/// A system small enough that its encodings stay under a kilobyte.
core::SystemConfig tiny_system() {
  core::SystemConfig cfg;
  cfg.orco.input_dim = 16;
  cfg.orco.latent_dim = 4;
  cfg.orco.decoder_layers = 1;
  cfg.orco.seed = 3;
  cfg.field.device_count = 4;
  cfg.field.radio_range_m = 60.0;
  return cfg;
}

/// Writes `bytes` over `path` in place, without the fsyncs of
/// common::write_file_atomic: thousands of mutants are planted per case.
void plant_file(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("cannot plant " + path);
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(DecodeMutationTest, ProtocolMessages) {
  common::Pcg32 rng(1);
  fuzz("LatentBatchMsg",
       core::LatentBatchMsg{7, Tensor::randn({3, 5}, rng)}.serialize(),
       [](const Bytes& b) { (void)core::LatentBatchMsg::deserialize(b); },
       11);
  fuzz("ReconstructionMsg",
       core::ReconstructionMsg{7, Tensor::randn({2, 8}, rng)}.serialize(),
       [](const Bytes& b) { (void)core::ReconstructionMsg::deserialize(b); },
       12);
  fuzz("ResidualMsg",
       core::ResidualMsg{7, Tensor::randn({2, 8}, rng)}.serialize(),
       [](const Bytes& b) { (void)core::ResidualMsg::deserialize(b); }, 13);
  fuzz("LatentGradMsg",
       core::LatentGradMsg{7, 0.25f, Tensor::randn({3, 5}, rng)}.serialize(),
       [](const Bytes& b) { (void)core::LatentGradMsg::deserialize(b); },
       14);
  fuzz("EncoderShareMsg",
       core::EncoderShareMsg{2, Tensor::randn({5}, rng),
                             Tensor::randn({5}, rng)}
           .serialize(),
       [](const Bytes& b) { (void)core::EncoderShareMsg::deserialize(b); },
       15);
}

TEST(DecodeMutationTest, SavedParams) {
  common::Pcg32 rng(2);
  nn::Sequential model;
  model.emplace<nn::Dense>(6, 4, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Dense>(4, 3, rng);
  const Bytes valid = nn::save_params(model);
  nn::Sequential target;
  target.emplace<nn::Dense>(6, 4, rng);
  target.emplace<nn::ReLU>();
  target.emplace<nn::Dense>(4, 3, rng);
  // load_params is all or nothing: after any throw the target's weights
  // are the ones it had before the call. A change escapes as
  // std::logic_error, which fuzz() counts against the case.
  fuzz("save_params blob", valid,
       [&](const Bytes& b) {
         const Bytes before = nn::save_params(target);
         try {
           nn::load_params(target, b);
         } catch (...) {
           if (nn::save_params(target) != before) {
             throw std::logic_error("a refused blob changed the model");
           }
           throw;
         }
       },
       21);
}

TEST(DecodeMutationTest, Fixed8LatentPayload) {
  common::Pcg32 rng(3);
  const std::vector<std::uint8_t> payload = core::quantize_latents(
      Tensor::randn({3, 5}, rng), core::LatentPrecision::kFixed8);
  Bytes valid(payload.size());
  std::memcpy(valid.data(), payload.data(), payload.size());
  fuzz("kFixed8 payload", valid,
       [](const Bytes& b) {
         std::vector<std::uint8_t> codes(b.size());
         if (!b.empty()) std::memcpy(codes.data(), b.data(), b.size());
         (void)core::dequantize_latents(codes, {3, 5},
                                        core::LatentPrecision::kFixed8);
       },
       31);
}

TEST(DecodeMutationTest, ColdStoreRecordAndItsWake) {
  const std::string dir = fresh_dir("orco_mutation_cold");
  fleet::ColdStore store(dir);
  core::OrcoDcsSystem system(tiny_system());
  fleet::ColdRecord record;
  record.model_version = 5;
  record.encoder_params = nn::save_params(system.aggregator().encoder());
  record.decoder_params = nn::save_params(system.edge().decoder());
  store.save(9, record);
  const Bytes valid = common::read_file(store.path_for(9));
  ASSERT_LT(valid.size(), 1024u);
  // What EdgeFleet::activate does with a record: load it, then load both
  // blobs into a fresh system's models.
  core::OrcoDcsSystem target(tiny_system());
  fuzz("ColdStore record", valid,
       [&](const Bytes& b) {
         plant_file(store.path_for(9), b);
         const fleet::LoadedRecord loaded = store.load(9);
         nn::load_params(target.aggregator().encoder(),
                         loaded.encoder_params);
         nn::load_params(target.edge().decoder(), loaded.decoder_params);
       },
       41);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace orco
