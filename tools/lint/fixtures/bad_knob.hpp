// Negative lint fixture: an SJOIN_* knob read through env:: that the
// CMakeLists.txt header does not document must trip the knob-inventory
// rule — every runtime knob is listed where users look for it.
// LINT_AS: src/runtime/bad_knob.hpp
#pragma once

#include "common/env.hpp"

namespace sjoin_fixture {

inline bool TurboRequested() {
  return sjoin::env::Flag("SJOIN_UNDOCUMENTED_TURBO");  // BAD: undocumented
}

}  // namespace sjoin_fixture
