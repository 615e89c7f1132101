#include "src/fabric/flit.h"

namespace unifab {

const char* ChannelName(Channel c) {
  switch (c) {
    case Channel::kIo:
      return "CXL.io";
    case Channel::kMem:
      return "CXL.mem";
    case Channel::kCache:
      return "CXL.cache";
    case Channel::kControl:
      return "ctrl";
  }
  return "?";
}

}  // namespace unifab
