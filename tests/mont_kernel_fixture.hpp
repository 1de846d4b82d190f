// Test fixture that runs a test once per Montgomery kernel set: the
// portable loops (param false) and the MULX/ADX kernels (param true,
// skipped on CPUs without BMI2 + ADX).  The set is made the active one
// for the duration of the test, so the whole Montgomery context, and
// everything built on it, runs that set.
#pragma once

#include <gtest/gtest.h>

#include "bignum/mont_kernels.hpp"

namespace sintra::bignum {

class MontKernelSet : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    set_ = GetParam() ? mont_kernels::adx_kernels()
                      : &mont_kernels::portable_kernels();
    if (set_ == nullptr) {
      GTEST_SKIP() << "this CPU (or build) lacks BMI2 + ADX";
    }
    saved_ = mont_kernels::exchange_montgomery_kernels(set_);
  }
  void TearDown() override {
    if (saved_ != nullptr) mont_kernels::exchange_montgomery_kernels(saved_);
  }
  [[nodiscard]] const mont_kernels::KernelSet& set() const { return *set_; }

 private:
  const mont_kernels::KernelSet* set_ = nullptr;
  const mont_kernels::KernelSet* saved_ = nullptr;
};

inline std::string mont_kernel_set_name(
    const ::testing::TestParamInfo<bool>& info) {
  return info.param ? "MulxAdx" : "Portable";
}

}  // namespace sintra::bignum
