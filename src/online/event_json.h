#pragma once

#include <vector>

#include "online/joint_controller.h"

/// \file event_json.h
/// \brief Structured-JSON rendering of the controller's reconfiguration
/// event log, via obs::JsonWriter — the machine-readable mirror of the
/// human-oriented event lines pathix_online prints.
///
/// Each event carries its op index, the configuration change (rendered with
/// IndexConfiguration::ToString), the hysteresis gate's predicted savings,
/// and the modeled-vs-measured transition price by component — the data
/// behind the measured-cost validation harness, now exportable per run.

namespace pathix {

namespace obs {
class JsonWriter;
}  // namespace obs

/// Appends a JSON array of the controller's events to \p w; each
/// event lists its per-path changes.
void WriteEventLog(obs::JsonWriter* w,
                   const std::vector<JointReconfigurationEvent>& events);

}  // namespace pathix
