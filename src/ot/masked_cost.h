// Masking ground-cost of Definition 2: the squared-Euclidean cost between
// mask-projected rows, C_m[i][j] = || m_i ⊙ a_i − m'_j ⊙ b_j ||².
#ifndef SCIS_OT_MASKED_COST_H_
#define SCIS_OT_MASKED_COST_H_

#include "tensor/matrix.h"

namespace scis {

// a: (n,d) with mask ma (n,d in {0,1}); b: (m,d) with mask mb.
// Returns the (n,m) masking cost matrix.
Matrix MaskedCostMatrix(const Matrix& a, const Matrix& ma, const Matrix& b,
                        const Matrix& mb);

// Envelope-theorem gradient of <P, C_m> with respect to the rows of `a`:
//   ∂/∂a_i = Σ_j P_ij · 2 (m_i⊙a_i − m'_j⊙b_j) ⊙ m_i          (Prop. 1)
// Returns an (n,d) matrix.
Matrix MaskedOtGradWrtA(const Matrix& plan, const Matrix& a, const Matrix& ma,
                        const Matrix& b, const Matrix& mb);

// Same but with respect to the rows of `b` (cost is symmetric in sign):
//   ∂/∂b_j = Σ_i P_ij · 2 (m'_j⊙b_j − m_i⊙a_i) ⊙ m'_j
Matrix MaskedOtGradWrtB(const Matrix& plan, const Matrix& a, const Matrix& ma,
                        const Matrix& b, const Matrix& mb);

}  // namespace scis

#endif  // SCIS_OT_MASKED_COST_H_
