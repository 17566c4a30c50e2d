// The GUESS backend's population: the shared dense slot table over Peer.
#pragma once

#include "common/slot_table.h"
#include "guess/peer.h"

namespace guess {

using PeerTable = SlotTable<Peer>;

}  // namespace guess
