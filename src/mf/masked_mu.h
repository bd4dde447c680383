// The masked update engine shared by NMF, SMF and SMFL: one step of the
// paper's Formulas 13/14 (or their projected-gradient twins, §III-B1),
// computed over the observed set Ω only.
//
// The formulas read X and UV only through R_Ω, so the engine keeps R_Ω(UV)
// as |Ω| values packed in the ObservedIndex's CSR order and forms
//   R_Ω(X)Vᵀ, R_Ω(UV)Vᵀ   as CSR row i × Vᵀ (M×K), one K-wide axpy per
//                         observed entry, ascending j;
//   UᵀR_Ω(X), UᵀR_Ω(UV)   per free column j over the rows observing it,
//                         ascending i, partitioned over output columns.
// An iteration costs O(|Ω|·K + (N+M)·K) time and O(|Ω| + (N+M)·K) memory
// at any observed rate; no N×M buffer exists.
//
// Bitwise contract: every output element is the ascending-order mul/add
// chain the dense gemms over ApplyMask'd N×M buffers run. The off-Ω terms
// those add are exact +0.0 and drop out of an accumulator that starts at
// +0.0, and each R_Ω(UV) entry is the chain data::MaskedReconstruct runs.
// So results equal the dense Formulas 13/14 bit for bit at any thread
// count and SIMD tier; tests/masked_mu_oracle_test.cc holds that dense
// reference.
//
// The engine is steps only: the loop, convergence test, guard, checkpoints
// and restarts stay with mf::FitNmf and core::FitSmflWithGraph.

#ifndef SMFL_MF_MASKED_MU_H_
#define SMFL_MF_MASKED_MU_H_

#include <vector>

#include "src/data/observed_index.h"
#include "src/la/matrix.h"
#include "src/spatial/graph.h"

namespace smfl::mf {

// SMF's graph term in the U step: λ·D·U joins the numerator and λ·W·U the
// denominator of Formula 13, λ·L·U the gradient. Off (NMF) when `graph` is
// null or λ is 0.
struct GraphTerm {
  const spatial::NeighborGraph* graph = nullptr;
  double lambda = 0.0;
};

class MaskedMuEngine {
 public:
  // `omega` must carry the observed values (ObservedIndex::FromMask(mask,
  // x)). V's columns [col_begin, M) are updated; [0, col_begin) stay
  // frozen (SMFL's landmark block; 0 for NMF and SMF).
  MaskedMuEngine(data::ObservedIndex omega, la::Index col_begin);

  // Refreshes the packed R_Ω(UV); the U steps read it, so call this after
  // every change to U or V.
  void Reconstruct(const la::Matrix& u, const la::Matrix& v);

  // ||R_Ω(X − UV)||²_F from the packed R_Ω(UV), summed in the order of
  // data::MaskedSquaredError.
  double SquaredError() const;

  // Formula 13: U ← U ⊙ (R_Ω(X)Vᵀ + λDU) / max(R_Ω(UV)Vᵀ + λWU, div_eps).
  // `v` must be the V of the last Reconstruct.
  void UpdateUMultiplicative(const GraphTerm& graph, double div_eps,
                             la::Matrix& u, const la::Matrix& v) const;
  // Formula 14 over the free columns, R_Ω(UV) taken at the incoming U, V:
  // V ← V ⊙ UᵀR_Ω(X) / max(UᵀR_Ω(UV), div_eps).
  void UpdateVMultiplicative(const la::Matrix& u, double div_eps,
                             la::Matrix& v) const;

  // U ← max(0, U + 2θ (R_Ω(X − UV)Vᵀ − λLU)); `v` as for the MU step.
  void UpdateUGradient(const GraphTerm& graph, double theta, la::Matrix& u,
                       const la::Matrix& v) const;
  // V ← max(0, V + 2δ (UᵀR_Ω(X) − UᵀR_Ω(UV))) over the free columns.
  void UpdateVGradient(const la::Matrix& u, double delta,
                       la::Matrix& v) const;

 private:
  // fn(i, a, b) per row i: a = R_Ω(X)Vᵀ and b = R_Ω(UV)Vᵀ, or a =
  // R_Ω(X − UV)Vᵀ when `residual`.
  template <typename RowFn>
  void ForEachURow(const la::Matrix& v, bool residual, RowFn&& fn) const;
  // fn(j, a, b) per free column j: a = UᵀR_Ω(X), b = UᵀR_Ω(UV).
  template <typename ColFn>
  void ForEachVColumn(const la::Matrix& u, const la::Matrix& v,
                      ColFn&& fn) const;

  struct ColumnEntry {
    la::Index row;
    double x;
  };

  data::ObservedIndex omega_;
  la::Index col_begin_;
  // Ω over the free columns, column-major with rows ascending, each entry
  // with its observed value: col_entries_[col_ptr_[j - col_begin_] ...].
  std::vector<la::Index> col_ptr_;
  std::vector<ColumnEntry> col_entries_;
  std::vector<double> uv_;  // R_Ω(UV), parallel to omega_'s entries
};

}  // namespace smfl::mf

#endif  // SMFL_MF_MASKED_MU_H_
