#include "crypto/verify_memo.hpp"

namespace sintra::crypto {

namespace {
thread_local VerifyMemo* t_current = nullptr;
}  // namespace

bool VerifyMemo::contains(const Digest& d) {
  const std::lock_guard lk(mu_);
  if (young_.contains(d)) return true;
  if (!old_.contains(d)) return false;
  insert_locked(d);  // promote: a statement still being re-checked stays
  return true;
}

void VerifyMemo::insert(const Digest& d) {
  const std::lock_guard lk(mu_);
  insert_locked(d);
}

void VerifyMemo::insert_locked(const Digest& d) {
  if (young_.size() >= kGenerationCapacity) {
    old_ = std::move(young_);
    young_.clear();
  }
  young_.insert(d);
}

std::size_t VerifyMemo::size() const {
  const std::lock_guard lk(mu_);
  return young_.size() + old_.size();
}

VerifyMemo* VerifyMemo::current() noexcept { return t_current; }

VerifyMemo::Scope::Scope(VerifyMemo* memo) noexcept : previous_(t_current) {
  t_current = memo;
}

VerifyMemo::Scope::~Scope() { t_current = previous_; }

}  // namespace sintra::crypto
