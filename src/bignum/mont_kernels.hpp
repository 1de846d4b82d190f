// Montgomery multiplication and squaring kernels (internal; include only
// from montgomery.cpp, its tests and the crypto micro-benchmarks).
//
// Montgomery::mmul / msqr hand the limb arithmetic to a kernel: for 8-limb
// (512-bit) and 16-limb (1024-bit) moduli, the kernel of the active set;
// for every other width, the portable `unsigned __int128` loops below.
// There are two sets: the portable one, and on x86-64 one built on
// MULX/ADCX/ADOX (BMI2 + ADX), whose rows run two independent carry
// chains through the flags (DESIGN.md §17).  The set is chosen once per
// process from the CPU's feature bits.  Every kernel returns the same,
// fully reduced (< m) result; the work counter is charged by the callers,
// never here, so switching sets changes no work unit and no virtual time.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sintra::bignum::mont_kernels {

using Limb = std::uint64_t;

/// out = a*b*R^-1 mod m over n-limb arrays, R = 2^(64n), with inputs
/// below m and m0inv = -m^-1 mod 2^64.  out may alias a and/or b.
using MulKernel = void (*)(Limb* out, const Limb* a, const Limb* b,
                           const Limb* m, Limb m0inv);
/// out = a*a*R^-1 mod m, same contract; out may alias a.
using SqrKernel = void (*)(Limb* out, const Limb* a, const Limb* m,
                           Limb m0inv);

/// The fixed-width kernels Montgomery runs for 8- and 16-limb moduli.
struct KernelSet {
  const char* name;  // "portable" or "mulx_adx"
  MulKernel mul8;
  SqrKernel sqr8;
  MulKernel mul16;
  SqrKernel sqr16;
};

/// Fused CIOS multiplication and SOS squaring for any width n in
/// [1, 64]; the portable set is these at n = 8 and n = 16.
void mul_portable(Limb* out, const Limb* a, const Limb* b, const Limb* m,
                  Limb m0inv, std::size_t n);
void sqr_portable(Limb* out, const Limb* a, const Limb* m, Limb m0inv,
                  std::size_t n);

const KernelSet& portable_kernels();
/// The MULX/ADX set, or nullptr when this build or this CPU lacks it.
const KernelSet* adx_kernels();

/// The set Montgomery::mmul / msqr run, chosen on first use.
const KernelSet& active_kernels();

/// Replaces the active set and returns the previous one, so tests and
/// benchmarks can run the whole of Montgomery through either set.  Not
/// for use while another thread is multiplying.
const KernelSet* exchange_montgomery_kernels(const KernelSet* set);

}  // namespace sintra::bignum::mont_kernels
