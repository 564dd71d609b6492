#include "exec/backend.h"

#include <algorithm>
#include <cctype>

namespace acquire {

const char* EvalBackendToString(EvalBackend backend) {
  switch (backend) {
    case EvalBackend::kAuto:
      return "auto";
    case EvalBackend::kDirect:
      return "direct";
    case EvalBackend::kParallel:
      return "parallel";
    case EvalBackend::kCellSorted:
      return "cellsorted";
  }
  return "?";
}

Result<EvalBackend> EvalBackendFromString(const std::string& name) {
  std::string lower = name;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  for (EvalBackend b :
       {EvalBackend::kAuto, EvalBackend::kDirect, EvalBackend::kParallel,
        EvalBackend::kCellSorted}) {
    if (lower == EvalBackendToString(b)) return b;
  }
  return Status::InvalidArgument("unknown evaluation backend: " + name);
}

}  // namespace acquire
