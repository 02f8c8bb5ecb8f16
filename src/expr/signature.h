#ifndef TRIGGERMAN_EXPR_SIGNATURE_H_
#define TRIGGERMAN_EXPR_SIGNATURE_H_

#include <string>
#include <vector>

#include "expr/expr.h"
#include "types/update_descriptor.h"
#include "util/result.h"

namespace tman {

/// An expression signature (paper §5): a triple of data source ID,
/// operation code, and a generalized expression in which every constant
/// has been replaced by a numbered placeholder CONSTANT_x (Figure 2). A
/// signature defines the equivalence class of all instantiations of the
/// expression with different constant values.
struct ExpressionSignature {
  DataSourceId data_source = 0;
  OpCode op = OpCode::kInsertOrUpdate;
  ExprPtr generalized;

  /// Number of constant placeholders (m in the paper).
  int num_constants = 0;

  /// For "on update(t.col, ...)" events: the columns whose change fires
  /// the event (sorted, lowercase; empty = any column). Part of the
  /// signature identity.
  std::vector<std::string> update_columns;

  bool Equals(const ExpressionSignature& other) const;
  uint64_t Hash() const;

  /// Human-readable description, stored in the expression_signature
  /// catalog's signatureDesc column.
  std::string Description() const;
};

/// The outcome of generalizing a concrete predicate: its signature plus
/// the extracted constants, numbered 1..m left to right.
struct GeneralizedPredicate {
  ExpressionSignature signature;
  std::vector<Value> constants;
};

/// Replaces every literal of `expr` with a placeholder and appends its
/// value to `constants`: the literal that makes `constants` n long
/// becomes CONSTANT_{offset+n}, so successive calls sharing one vector
/// number left to right across expressions. Placeholders already in
/// `expr` are kept (`offset` leaves room for them).
ExprPtr GeneralizeLiterals(const ExprPtr& expr, int offset,
                           std::vector<Value>* constants);

/// Canonicalizes (comparisons put the column ref on the left: 50 < e.sal
/// becomes e.sal > 50) and generalizes a selection predicate, extracting
/// its constants. The predicate must reference at most one tuple variable.
Result<GeneralizedPredicate> GeneralizePredicate(DataSourceId ds, OpCode op,
                                                 const ExprPtr& predicate);

/// One indexable equality conjunct: attribute = CONSTANT_<placeholder>.
struct EqConjunct {
  std::string attribute;
  int placeholder = 0;
};

/// A range-indexable piece: one attribute bounded below and/or above by
/// constants, assembled from conjuncts of the form
/// attribute <op> CONSTANT_<placeholder> with op in {<, <=, >, >=}.
/// `lo < x AND x < hi` produces both bounds (a stabbing interval).
struct RangeSpec {
  std::string attribute;
  bool has_lo = false;
  bool lo_inclusive = false;
  int lo_placeholder = 0;
  bool has_hi = false;
  bool hi_inclusive = false;
  int hi_placeholder = 0;
};

/// The split E = E_I AND E_NI of a generalized expression (§5.1).
/// Priority follows the paper's "most selective conjunct" rule: all
/// equality conjuncts on constants form a composite-key indexable part;
/// failing that, the range conjuncts on one attribute are indexable
/// through an interval index; otherwise nothing is indexable and every
/// expression in the equivalence class must be tested directly.
struct IndexableSplit {
  std::vector<EqConjunct> eq;          // composite equality key (may be empty)
  bool has_range = false;
  RangeSpec range;                     // valid iff has_range (eq empty)
  ExprPtr rest;                        // E_NI; null when fully indexable
};

/// Computes the indexable split of a signature's generalized expression.
IndexableSplit SplitIndexable(const ExprPtr& generalized);

/// The canonical tuple-variable name used inside signatures ("t").
/// Rest-of-predicate tests bind the token tuple to this variable.
std::string_view SignatureVarName();

}  // namespace tman

#endif  // TRIGGERMAN_EXPR_SIGNATURE_H_
