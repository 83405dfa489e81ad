// Model weight (de)serialisation.
//
// save_params's blob is the persisted weight format: the fleet's cold
// records carry one per model (fleet/cold_store.h), and publish clones
// copy weights through it. It is also how the orchestrator measures the
// broadcast cost of distributing the trained encoder to IoT devices
// (paper §III-C): the serialised size is the wire size.
#pragma once

#include "common/serialize.h"
#include "nn/layer.h"

namespace orco::nn {

/// Serialises all parameters of `model` (names, shapes, data) into bytes.
std::vector<std::byte> save_params(Layer& model);

/// Restores parameters saved by save_params. All or nothing: the whole
/// blob is checked first (magic, parameter count, names, ranks, shapes,
/// value counts, no trailing bytes), and a blob that fails any check
/// throws std::invalid_argument with every value of `model` unchanged.
void load_params(Layer& model, std::span<const std::byte> bytes);

}  // namespace orco::nn
