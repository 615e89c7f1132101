#include "src/sim/audit.h"

#include <algorithm>

namespace unifab {

std::uint64_t InvariantAuditor::Register(const std::string& path, InvariantCheck check) {
  std::string unique = path;
  const int claim = ++path_claims_[path];
  if (claim > 1) {
    unique += '#';
    unique += std::to_string(claim);
  }
  const std::uint64_t id = next_id_++;
  checks_.push_back(Entry{id, std::move(unique), std::move(check)});
  return id;
}

bool InvariantAuditor::Unregister(std::uint64_t id) {
  auto it = std::find_if(checks_.begin(), checks_.end(),
                         [id](const Entry& e) { return e.id == id; });
  if (it == checks_.end()) {
    return false;
  }
  checks_.erase(it);
  return true;
}

std::string InvariantAuditor::ClaimPrefix(const std::string& prefix) {
  const int claim = ++path_claims_[prefix];
  return claim == 1 ? prefix : prefix + "#" + std::to_string(claim);
}

std::vector<InvariantViolation> InvariantAuditor::Sweep() const {
  ++sweeps_;
  std::vector<InvariantViolation> violations;
  for (const Entry& entry : checks_) {
    std::string message = entry.check();
    if (!message.empty()) {
      violations.push_back(InvariantViolation{entry.path, std::move(message)});
    }
  }
  return violations;
}

AuditScope::AuditScope(InvariantAuditor* auditor, const std::string& prefix)
    : auditor_(auditor) {
  if (auditor_ != nullptr) {
    prefix_ = auditor_->ClaimPrefix(prefix);
  }
}

AuditScope& AuditScope::operator=(AuditScope&& other) noexcept {
  if (this != &other) {
    RemoveAll();
    auditor_ = other.auditor_;
    prefix_ = std::move(other.prefix_);
    registered_ = std::move(other.registered_);
    other.auditor_ = nullptr;
    other.prefix_.clear();
    other.registered_.clear();
  }
  return *this;
}

void AuditScope::AddCheck(const std::string& name, InvariantCheck check) {
  if (auditor_ == nullptr) {
    return;
  }
  registered_.push_back(auditor_->Register(prefix_ + "/" + name, std::move(check)));
}

void AuditScope::RemoveAll() {
  if (auditor_ == nullptr) {
    return;
  }
  for (std::uint64_t id : registered_) {
    auditor_->Unregister(id);
  }
  registered_.clear();
}

}  // namespace unifab
