// Activation kinds and shared scalar activation forms for the kernel layer.
//
// The fused linear layer is two kernels: the register-tiled product
// x·W + b (kernels/linear.h) and one in-place activation pass over the
// rows it wrote (ActInPlace, kernels/elementwise.h). The activation pass
// and the elementwise sigmoid must produce bit-identical values for the
// same input, so the scalar expressions live here once and every loop
// inlines them. ExpD is pure straight-line arithmetic (kernels/exp.h), so
// the result does not depend on which clone or TU evaluated it.
#ifndef SCIS_KERNELS_ACT_H_
#define SCIS_KERNELS_ACT_H_

#include <cmath>

#include "kernels/exp.h"

namespace scis::kernels {

// Activation of a fused linear layer. Each derivative is a function of the
// output alone, so the fused node's backward needs only its saved output.
enum class Act { kIdentity, kSigmoid, kRelu, kTanh };

// Sign-split sigmoid, selected branch-free: e = exp(-|x|), then 1/(1+e) for
// x >= 0 or e/(1+e) otherwise. Matches SigmoidArray element-for-element.
inline double SigmoidD(double x) {
  const double e = ExpD(x >= 0.0 ? -x : x);
  const double num = x >= 0.0 ? 1.0 : e;
  return num / (1.0 + e);
}

}  // namespace scis::kernels

#endif  // SCIS_KERNELS_ACT_H_
